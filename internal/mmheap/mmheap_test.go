package mmheap

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/emio"
)

// sliceSource serves s in blocks of three elements, so every multi-block
// test also crosses block boundaries.
func sliceSource(s []emio.Elem) Source { return blockSource(s, 3) }

// blockSource serves s as consecutive blocks of up to blk elements, each a
// fresh copy that the next call overwrites, as a Reader's buffer is.
func blockSource(s []emio.Elem, blk int) Source {
	buf := make([]emio.Elem, blk)
	return func() ([]emio.Elem, bool) {
		if len(s) == 0 {
			return nil, false
		}
		n := copy(buf, s)
		s = s[n:]
		return buf[:n], true
	}
}

func mustCtx(t *testing.T) *emio.Ctx {
	t.Helper()
	ctx, err := emio.NewUnmeteredCtx(emio.Config{M: 1 << 20, B: 64})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func drain(t *testing.T, m *Merger) []emio.Elem {
	t.Helper()
	var out []emio.Elem
	for {
		e, ok := m.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

func mergeCase(t *testing.T, runs [][]emio.Elem) {
	t.Helper()
	ctx := mustCtx(t)
	srcs := make([]Source, len(runs))
	var all []emio.Elem
	for i, r := range runs {
		srcs[i] = sliceSource(r)
		all = append(all, r...)
	}
	m, err := New(ctx, srcs)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	m.Close()
	sort.Slice(all, func(i, j int) bool { return emio.Less(all[i], all[j]) })
	if len(got) != len(all) {
		t.Fatalf("merged %d elements, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("merge differs at %d: %v vs %v", i, got[i], all[i])
		}
	}
	if ctx.Mem().Used() != 0 {
		t.Fatalf("merger leaked %d memory", ctx.Mem().Used())
	}
}

func e(k int64) emio.Elem { return emio.Elem{Key: k, Aux: k} }

func TestMergeSingleSource(t *testing.T) {
	mergeCase(t, [][]emio.Elem{{e(1), e(2), e(3)}})
}

func TestMergeTwoSources(t *testing.T) {
	mergeCase(t, [][]emio.Elem{{e(1), e(3), e(5)}, {e(2), e(4), e(6)}})
}

func TestMergeEmptySources(t *testing.T) {
	mergeCase(t, [][]emio.Elem{{}, {e(1)}, {}, {e(0), e(2)}, {}})
}

func TestMergeAllEmpty(t *testing.T) {
	mergeCase(t, [][]emio.Elem{{}, {}, {}})
}

func TestMergeNonPowerOfTwo(t *testing.T) {
	mergeCase(t, [][]emio.Elem{
		{e(10), e(20)}, {e(5)}, {e(1), e(2), e(30)},
	})
}

func TestMergeDuplicateKeys(t *testing.T) {
	a := []emio.Elem{{Key: 1, Aux: 0}, {Key: 1, Aux: 2}, {Key: 1, Aux: 4}}
	b := []emio.Elem{{Key: 1, Aux: 1}, {Key: 1, Aux: 3}, {Key: 1, Aux: 5}}
	mergeCase(t, [][]emio.Elem{a, b})
}

func TestMergeSkewedLengths(t *testing.T) {
	long := make([]emio.Elem, 1000)
	for i := range long {
		long[i] = e(int64(2 * i))
	}
	mergeCase(t, [][]emio.Elem{long, {e(501)}, {}})
}

func TestMergeManySources(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	runs := make([][]emio.Elem, 129) // non-power-of-two, large
	for i := range runs {
		n := rng.IntN(50)
		r := make([]emio.Elem, n)
		for j := range r {
			r[j] = emio.Elem{Key: rng.Int64N(1000), Aux: int64(i*1000 + j)}
		}
		sort.Slice(r, func(a, b int) bool { return emio.Less(r[a], r[b]) })
		runs[i] = r
	}
	mergeCase(t, runs)
}

func TestNewRejectsNoSources(t *testing.T) {
	if _, err := New(mustCtx(t), nil); err == nil {
		t.Error("New with no sources succeeded")
	}
}

func TestNewRespectsBudget(t *testing.T) {
	ctx, err := emio.NewCtx(emio.Config{M: 16, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]Source, 64)
	for i := range srcs {
		srcs[i] = sliceSource(nil)
	}
	if _, err := New(ctx, srcs); err == nil {
		t.Error("64-way merger fit in M=16")
	}
}

func TestMergeProperty(t *testing.T) {
	prop := func(raw [][]int64) bool {
		if len(raw) == 0 {
			return true
		}
		runs := make([][]emio.Elem, len(raw))
		var all []emio.Elem
		aux := int64(0)
		for i, keys := range raw {
			r := make([]emio.Elem, len(keys))
			for j, k := range keys {
				r[j] = emio.Elem{Key: k, Aux: aux}
				aux++
			}
			sort.Slice(r, func(a, b int) bool { return emio.Less(r[a], r[b]) })
			runs[i] = r
			all = append(all, r...)
		}
		ctx, _ := emio.NewUnmeteredCtx(emio.Config{M: 1 << 20, B: 64})
		srcs := make([]Source, len(runs))
		for i, r := range runs {
			srcs[i] = sliceSource(r)
		}
		m, err := New(ctx, srcs)
		if err != nil {
			return false
		}
		defer m.Close()
		sort.Slice(all, func(i, j int) bool { return emio.Less(all[i], all[j]) })
		for _, want := range all {
			got, ok := m.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := m.Next()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerge64Way(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	runs := make([][]emio.Elem, 64)
	for i := range runs {
		r := make([]emio.Elem, 1024)
		for j := range r {
			r[j] = emio.Elem{Key: rng.Int64(), Aux: int64(j)}
		}
		sort.Slice(r, func(a, b int) bool { return emio.Less(r[a], r[b]) })
		runs[i] = r
	}
	ctx, _ := emio.NewUnmeteredCtx(emio.Config{M: 1 << 20, B: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs := make([]Source, len(runs))
		for j, r := range runs {
			srcs[j] = blockSource(r, 64)
		}
		m, _ := New(ctx, srcs)
		for {
			if _, ok := m.Next(); !ok {
				break
			}
		}
		m.Close()
	}
}

func TestMergerK(t *testing.T) {
	ctx := mustCtx(t)
	m, err := New(ctx, []Source{sliceSource(nil), sliceSource(nil), sliceSource(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.K() != 3 {
		t.Errorf("K = %d", m.K())
	}
}

// windowSource serves the window run[skip:skip+cnt] the way the parallel
// engine's range merge reads a run window: blocks stay aligned to the run's
// blk-element blocks, the first one trimmed at the front, the last at the
// back.
func windowSource(run []emio.Elem, blk, skip, cnt int) Source {
	src := blockSource(run[skip/blk*blk:], blk)
	first := true
	return func() ([]emio.Elem, bool) {
		if cnt <= 0 {
			return nil, false
		}
		b, ok := src()
		if !ok {
			return nil, false
		}
		if first {
			b, first = b[skip%blk:], false
		}
		b = b[:min(len(b), cnt)]
		cnt -= len(b)
		return b, true
	}
}

// TestMergeMatchesSortedConcatenation is a differential test against
// sorting the concatenation of the inputs, over random shapes: empty
// sources, k = 1, k not a power of two, duplicate (Key, Aux) pairs within
// and across sources, MinInt64 keys, elements equal to {MaxInt64, MaxInt64}
// (which must come out before any exhausted leaf's sentinel), block sizes
// from 1 up, and trimmed run windows.
func TestMergeMatchesSortedConcatenation(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	keys := []int64{math.MinInt64, math.MinInt64 + 1, -5, -1, 0, 1, 3, math.MaxInt64 - 1, math.MaxInt64}
	pick := func() int64 {
		if rng.IntN(3) == 0 {
			return rng.Int64() - rng.Int64()
		}
		return keys[rng.IntN(len(keys))]
	}
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.IntN(19)
		blk := 1 + rng.IntN(9)
		srcs := make([]Source, k)
		var all []emio.Elem
		for i := range srcs {
			r := make([]emio.Elem, rng.IntN(40))
			for j := range r {
				r[j] = emio.Elem{Key: pick(), Aux: pick()}
			}
			slices.SortFunc(r, emio.Compare)
			if rng.IntN(4) == 0 && len(r) > 0 {
				skip := rng.IntN(len(r))
				cnt := rng.IntN(len(r) - skip + 1)
				srcs[i] = windowSource(r, blk, skip, cnt)
				r = r[skip : skip+cnt]
			} else {
				srcs[i] = blockSource(r, blk)
			}
			all = append(all, r...)
		}
		slices.SortFunc(all, emio.Compare)
		ctx := mustCtx(t)
		m, err := New(ctx, srcs)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, m)
		m.Close()
		if !slices.Equal(got, all) {
			t.Fatalf("trial %d (k=%d, blk=%d): merge differs from the sorted concatenation\ngot  %v\nwant %v", trial, k, blk, got, all)
		}
	}
}

// TestMergeFetchesOnlyWhenConsumed pins the block-fetch timing: a source is
// called again only once every element of its previous block has been
// returned by Next, so a disk-backed source reads each block exactly when an
// element-at-a-time reader would.
func TestMergeFetchesOnlyWhenConsumed(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	const k, blk = 7, 4
	runs := make([][]emio.Elem, k)
	calls := make([]int, k)
	srcs := make([]Source, k)
	for i := range runs {
		r := make([]emio.Elem, rng.IntN(30))
		for j := range r {
			r[j] = emio.Elem{Key: rng.Int64N(50), Aux: int64(i)}
		}
		slices.SortFunc(r, emio.Compare)
		runs[i] = r
		inner := blockSource(r, blk)
		srcs[i] = func() ([]emio.Elem, bool) {
			calls[i]++
			return inner()
		}
	}
	m, err := New(mustCtx(t), srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	consumed := make([]int, k)
	check := func(step int) {
		for i, r := range runs {
			// The head is element consumed[i], held from block
			// consumed[i]/blk; an exhausted leaf made one final call.
			want := consumed[i]/blk + 1
			if consumed[i] == len(r) {
				want = (len(r)+blk-1)/blk + 1
			}
			if calls[i] != want {
				t.Fatalf("step %d: source %d called %d times after consuming %d of %d, want %d",
					step, i, calls[i], consumed[i], len(r), want)
			}
		}
	}
	check(0)
	for step := 1; ; step++ {
		e, ok := m.Next()
		if !ok {
			break
		}
		// Aux names the source the element came from.
		consumed[e.Aux]++
		check(step)
	}
}

// TestMergeHookTranscript pins the comparisons a comparison hook observes
// during a small 5-way merge, whatever the block sizes: the (lo, hi) pairs
// below are those of a tournament fed one element per source call, so
// transcripts see the same comparisons in the same order.
func TestMergeHookTranscript(t *testing.T) {
	runs := [][]emio.Elem{
		{{Key: 1, Aux: 0}, {Key: 4, Aux: 0}, {Key: 9, Aux: 0}},
		{{Key: 2, Aux: 1}, {Key: 4, Aux: 0}},
		{},
		{{Key: 0, Aux: 3}, {Key: 4, Aux: 3}, {Key: 7, Aux: 3}, {Key: math.MaxInt64, Aux: math.MaxInt64}},
		{{Key: 3, Aux: 4}, {Key: 8, Aux: 4}},
	}
	const maxE = math.MaxInt64
	want := [][2]emio.Elem{
		{{Key: 1, Aux: 0}, {Key: 2, Aux: 1}},
		{{Key: 0, Aux: 3}, {Key: 1, Aux: 0}},
		{{Key: 0, Aux: 3}, {Key: 3, Aux: 4}},
		{{Key: 1, Aux: 0}, {Key: 4, Aux: 3}},
		{{Key: 1, Aux: 0}, {Key: 3, Aux: 4}},
		{{Key: 2, Aux: 1}, {Key: 4, Aux: 0}},
		{{Key: 2, Aux: 1}, {Key: 4, Aux: 3}},
		{{Key: 2, Aux: 1}, {Key: 3, Aux: 4}},
		{{Key: 4, Aux: 0}, {Key: 4, Aux: 3}},
		{{Key: 3, Aux: 4}, {Key: 4, Aux: 0}},
		{{Key: 4, Aux: 0}, {Key: 8, Aux: 4}},
		{{Key: 4, Aux: 0}, {Key: 9, Aux: 0}},
		{{Key: 4, Aux: 0}, {Key: 4, Aux: 3}},
		{{Key: 4, Aux: 0}, {Key: 8, Aux: 4}},
		{{Key: 4, Aux: 3}, {Key: 9, Aux: 0}},
		{{Key: 4, Aux: 3}, {Key: 8, Aux: 4}},
		{{Key: 7, Aux: 3}, {Key: 9, Aux: 0}},
		{{Key: 7, Aux: 3}, {Key: 8, Aux: 4}},
		{{Key: 9, Aux: 0}, {Key: maxE, Aux: maxE}},
		{{Key: 8, Aux: 4}, {Key: 9, Aux: 0}},
	}
	for _, blk := range []int{1, 2, 5} {
		srcs := make([]Source, len(runs))
		for i, r := range runs {
			srcs[i] = blockSource(r, blk)
		}
		var seen [][2]emio.Elem
		emio.SetCompareHook(func(lo, hi emio.Elem) { seen = append(seen, [2]emio.Elem{lo, hi}) })
		m, err := New(mustCtx(t), srcs)
		if err != nil {
			emio.SetCompareHook(nil)
			t.Fatal(err)
		}
		got := drain(t, m)
		emio.SetCompareHook(nil)
		m.Close()
		if !slices.Equal(seen, want) {
			t.Errorf("blk=%d: hook observed %v\nwant %v", blk, seen, want)
		}
		if len(got) != 11 || got[10] != (emio.Elem{Key: maxE, Aux: maxE}) {
			t.Errorf("blk=%d: merged %v", blk, got)
		}
	}
}

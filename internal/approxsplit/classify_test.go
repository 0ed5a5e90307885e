package approxsplit

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/emio"
)

// refBucketOf is the original bucket search, kept as the reference the
// branchless forms are checked against: sort.Search probing with emio.Less.
func refBucketOf(sp []emio.Elem, e emio.Elem) int {
	return sort.Search(len(sp), func(i int) bool { return !emio.Less(sp[i], e) })
}

// cmpElem orders by (Key, Aux) without reaching the comparison hook.
func cmpElem(a, b emio.Elem) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return +1
	case a.Aux < b.Aux:
		return -1
	case a.Aux > b.Aux:
		return +1
	}
	return 0
}

var extremes = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}

// randWord draws from a small key range, so equal keys are common, mixed
// with the extreme values of int64.
func randWord(rng *rand.Rand, span int64) int64 {
	if rng.IntN(6) == 0 {
		return extremes[rng.IntN(len(extremes))]
	}
	return rng.Int64N(2*span+1) - span
}

// splitterSet returns n distinct elements in ascending (Key, Aux) order,
// many of them sharing a key with different Aux values.
func splitterSet(rng *rand.Rand, n int) []emio.Elem {
	span := int64(n/4 + 1)
	seen := make(map[emio.Elem]bool, n)
	sp := make([]emio.Elem, 0, n)
	for len(sp) < n {
		e := emio.Elem{Key: randWord(rng, span), Aux: randWord(rng, 3)}
		if rng.IntN(2) == 0 {
			e.Aux = rng.Int64()
		}
		if !seen[e] {
			seen[e] = true
			sp = append(sp, e)
		}
	}
	slices.SortFunc(sp, cmpElem)
	return sp
}

// probesFor returns every splitter, its immediate neighbours in the total
// order, all combinations of extreme Key and Aux values, and random
// elements.
func probesFor(rng *rand.Rand, sp []emio.Elem) []emio.Elem {
	var es []emio.Elem
	for _, s := range sp {
		es = append(es, s)
		if s.Aux != math.MinInt64 {
			es = append(es, emio.Elem{Key: s.Key, Aux: s.Aux - 1})
		}
		if s.Aux != math.MaxInt64 {
			es = append(es, emio.Elem{Key: s.Key, Aux: s.Aux + 1})
		}
	}
	for _, k := range extremes {
		for _, a := range extremes {
			es = append(es, emio.Elem{Key: k, Aux: a})
		}
	}
	span := int64(len(sp)/4 + 1)
	for i := 0; i < 64; i++ {
		es = append(es, emio.Elem{Key: randWord(rng, span), Aux: randWord(rng, 3)})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// splitterCounts covers 0-9, 2^k-1, 2^k and 2^k+1, and the largest splitter
// array seen at the benchmark's query shape.
func splitterCounts() []int {
	ns := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for k := 4; k <= 12; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return append(ns, 2559)
}

// checkAgainstRef classifies es in batches of every length 0..9 and in one
// full batch, and with BucketOf, and compares each result to the reference.
func checkAgainstRef(t *testing.T, sp, es []emio.Elem) {
	t.Helper()
	want := make([]int32, len(es))
	for i, e := range es {
		want[i] = int32(refBucketOf(sp, e))
	}
	got := make([]int32, len(es))
	for blen := 0; blen <= 9; blen++ {
		for off := 0; off+blen <= len(es); off += max(blen, 1) {
			Classify(sp, es[off:off+blen], got[off:])
		}
		if blen > 0 {
			if i := firstMismatch(got, want, len(es)/blen*blen); i >= 0 {
				t.Fatalf("len(sp)=%d batch %d: Classify(%v) = %d, want %d", len(sp), blen, es[i], got[i], want[i])
			}
		}
	}
	clear(got)
	Classify(sp, es, got)
	if i := firstMismatch(got, want, len(es)); i >= 0 {
		t.Fatalf("len(sp)=%d full batch: Classify(%v) = %d, want %d", len(sp), es[i], got[i], want[i])
	}
	for i, e := range es {
		if b := BucketOf(sp, e); b != int(want[i]) {
			t.Fatalf("len(sp)=%d: BucketOf(%v) = %d, want %d", len(sp), e, b, want[i])
		}
	}
}

func firstMismatch(got, want []int32, n int) int {
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

func TestClassifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range splitterCounts() {
		sp := splitterSet(rng, n)
		checkAgainstRef(t, sp, probesFor(rng, sp))
	}
}

func TestClassifyExtremeSplitters(t *testing.T) {
	var sp []emio.Elem
	for _, k := range extremes {
		for _, a := range extremes {
			sp = append(sp, emio.Elem{Key: k, Aux: a})
		}
	}
	slices.SortFunc(sp, cmpElem)
	rng := rand.New(rand.NewPCG(3, 4))
	for n := 0; n <= len(sp); n++ {
		checkAgainstRef(t, sp[:n], probesFor(rng, sp))
	}
}

func TestClassifyDuplicateKeys(t *testing.T) {
	// One key, many Aux values; then repeated identical splitters, where
	// the lower bound must still land on the first copy.
	var sp []emio.Elem
	for a := int64(-8); a <= 8; a++ {
		sp = append(sp, emio.Elem{Key: 42, Aux: a * 3})
	}
	rng := rand.New(rand.NewPCG(5, 6))
	checkAgainstRef(t, sp, probesFor(rng, sp))
	rep := []emio.Elem{{Key: 1}, {Key: 2}, {Key: 2}, {Key: 2}, {Key: 2}, {Key: 3}, {Key: 3}}
	checkAgainstRef(t, rep, probesFor(rng, rep))
}

func TestClassifyEmptySplittersIsBucketZero(t *testing.T) {
	es := []emio.Elem{{Key: math.MinInt64}, {Key: 0}, {Key: math.MaxInt64, Aux: math.MaxInt64}, {}, {Key: 5}}
	out := []int32{7, 7, 7, 7, 7, 7}
	Classify(nil, es, out)
	for i := range es {
		if out[i] != 0 {
			t.Fatalf("out[%d] = %d with no splitters", i, out[i])
		}
	}
	if out[len(es)] != 7 {
		t.Error("Classify wrote past len(es)")
	}
}

func TestLowerBoundInt64MatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for n := 0; n <= 70; n++ {
		// Ascending with runs of equal values, as msel's query buckets are.
		s := make([]int64, n)
		for i := range s {
			s[i] = randWord(rng, int64(n/3+1))
		}
		slices.Sort(s)
		probes := append(slices.Clone(s), extremes...)
		for _, v := range s {
			if v != math.MinInt64 {
				probes = append(probes, v-1)
			}
			if v != math.MaxInt64 {
				probes = append(probes, v+1)
			}
		}
		for _, v := range probes {
			want := sort.Search(n, func(i int) bool { return s[i] >= v })
			if got := LowerBoundInt64(s, v); got != want {
				t.Fatalf("LowerBoundInt64(%v, %d) = %d, want %d", s, v, got, want)
			}
		}
	}
}

type cmpPair struct{ lo, hi emio.Elem }

// observe records the ordered comparison transcript of fn.
func observe(fn func()) []cmpPair {
	var got []cmpPair
	emio.SetCompareHook(func(lo, hi emio.Elem) { got = append(got, cmpPair{lo, hi}) })
	defer emio.SetCompareHook(nil)
	fn()
	return got
}

func TestClassifyTranscriptUnderHook(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{0, 1, 5, 64, 2559} {
		sp := splitterSet(rng, n)
		es := probesFor(rng, sp)[:67] // not a multiple of 4
		want := observe(func() {
			for _, e := range es {
				refBucketOf(sp, e)
			}
		})
		if n > 0 && len(want) == 0 {
			t.Fatalf("len(sp)=%d: reference recorded no comparisons", n)
		}
		out := make([]int32, len(es))
		viaClassify := observe(func() { Classify(sp, es, out) })
		viaBucketOf := observe(func() {
			for _, e := range es {
				BucketOf(sp, e)
			}
		})
		for name, got := range map[string][]cmpPair{"Classify": viaClassify, "BucketOf": viaBucketOf} {
			if !slices.Equal(got, want) {
				t.Errorf("len(sp)=%d: %s transcript differs from reference (%d vs %d comparisons)",
					n, name, len(got), len(want))
			}
		}
		for i, e := range es {
			if int(out[i]) != refBucketOf(sp, e) {
				t.Fatalf("len(sp)=%d: hooked Classify(%v) = %d", n, e, out[i])
			}
		}
	}
}

// fuzzWord maps a byte to an int64, with 0 and 255 standing for the extreme
// values, so small inputs exercise equal keys and both ends of the range.
func fuzzWord(b byte) int64 {
	switch b {
	case 0:
		return math.MinInt64
	case 255:
		return math.MaxInt64
	}
	return int64(b) - 128
}

func FuzzClassify(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 255, 255, 1, 2, 128, 128, 0, 255, 255, 0}, uint16(3))
	f.Add([]byte("splitters and probes share one byte string"), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, nsp uint16) {
		els := make([]emio.Elem, len(data)/2)
		for i := range els {
			els[i] = emio.Elem{Key: fuzzWord(data[2*i]), Aux: fuzzWord(data[2*i+1])}
		}
		k := int(nsp) % (len(els) + 1)
		sp, es := els[:k], els[k:]
		slices.SortFunc(sp, cmpElem)
		out := make([]int32, len(es))
		Classify(sp, es, out)
		for i, e := range es {
			want := refBucketOf(sp, e)
			if int(out[i]) != want {
				t.Fatalf("Classify(%v) over %d splitters = %d, want %d", e, len(sp), out[i], want)
			}
			if b := BucketOf(sp, e); b != want {
				t.Fatalf("BucketOf(%v) over %d splitters = %d, want %d", e, len(sp), b, want)
			}
		}
	})
}

// benchSink keeps the benchmarked searches from being optimised away.
var benchSink int

// BenchmarkClassify routes random probes against 2,559 splitters, the
// largest splitter array of the benchmark's query shape; ns/op is per
// element.
func BenchmarkClassify(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 10))
	sp := make([]emio.Elem, 2559)
	for i := range sp {
		sp[i] = emio.Elem{Key: rng.Int64(), Aux: int64(i)}
	}
	slices.SortFunc(sp, cmpElem)
	probes := make([]emio.Elem, 1<<16)
	for i := range probes {
		probes[i] = emio.Elem{Key: rng.Int64(), Aux: int64(i)}
	}
	mask := len(probes) - 1
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += refBucketOf(sp, probes[i&mask])
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += BucketOf(sp, probes[i&mask])
		}
	})
	b.Run("batched", func(b *testing.B) {
		var out [ChunkLen]int32
		for i := 0; i < b.N; i += ChunkLen {
			off := i & mask
			c := probes[off : off+min(ChunkLen, b.N-i)]
			Classify(sp, c, out[:])
			benchSink += int(out[0])
		}
	})
}

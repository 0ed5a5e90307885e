package inmem

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// sortInputs are the distributions the specialised sort must agree with
// slices.SortFunc(emio.Compare) on: every workload kind, plus fully
// identical records (equal Key and Aux), equal keys over shuffled Aux, a
// few-distinct variant with repeated Aux values, which workload never
// generates, keys mixing
// MinInt64, MaxInt64 and negatives, input whose top radix digit holds most
// elements, and sorted and reversed input with a few pairs swapped.
func sortInputs(n int) map[string][]emio.Elem {
	in := make(map[string][]emio.Elem)
	for _, k := range workload.Kinds() {
		in[k.String()] = workload.Elems(k, n, 32, uint64(n)+7)
	}
	same := make([]emio.Elem, n)
	for i := range same {
		same[i] = emio.Elem{Key: 3, Aux: 3}
	}
	in["identical"] = same
	in["equalkeys"] = equalKeys(n)
	few := make([]emio.Elem, n)
	for i := range few {
		few[i] = emio.Elem{Key: int64(i*7919) % 5, Aux: int64(i % 3)}
	}
	in["fewvalues"] = few
	rng := rand.New(rand.NewPCG(uint64(n), 1))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
	ext := make([]emio.Elem, n)
	for i := range ext {
		k := rng.Int64() - rng.Int64()
		if rng.IntN(4) == 0 {
			k = extremes[rng.IntN(len(extremes))]
		}
		ext[i] = emio.Elem{Key: k, Aux: int64(rng.IntN(1 << 20))}
	}
	in["extremes"] = ext
	skew := make([]emio.Elem, n)
	for i := range skew {
		skew[i] = emio.Elem{Key: rng.Int64N(1 << 40), Aux: int64(i)}
		if i%5 < 3 {
			skew[i].Key %= 1000
		}
	}
	in["skewed"] = skew
	for _, k := range []workload.Kind{workload.Sorted, workload.Reverse} {
		s := workload.Elems(k, n, 32, 1)
		for j := 0; j < 5 && n > 0; j++ {
			a, b := rng.IntN(n), rng.IntN(n)
			s[a], s[b] = s[b], s[a]
		}
		in["nearly"+k.String()] = s
	}
	return in
}

// equalKeys returns n elements with one Key and a shuffled permutation of
// 0..n-1 as Aux: all-equal keys that are not already sorted.
func equalKeys(n int) []emio.Elem {
	s := make([]emio.Elem, n)
	for i, a := range rand.New(rand.NewPCG(uint64(n), 2)).Perm(n) {
		s[i] = emio.Elem{Key: 7, Aux: int64(a)}
	}
	return s
}

// TestSortMatchesSortFunc checks Sort byte for byte against the reference
// slices.SortFunc(s, emio.Compare), at sizes around the threshold where
// Sort turns to the radix sort and its two goroutines, with GOMAXPROCS
// forced to 1 and 2 so every path is covered on any host. The radix sort is
// also run directly on every input, without the fallbacks that Sort applies
// to ordered and skewed input, so it is checked on every workload kind.
func TestSortMatchesSortFunc(t *testing.T) {
	sizes := []int{0, 1, 2, 12, 13, 100, parallelSortMin - 1, parallelSortMin, parallelSortMin + 1, 3*parallelSortMin + 5}
	if testing.Short() {
		sizes = []int{0, 1, 13, parallelSortMin - 1, parallelSortMin + 1}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range sizes {
			for name, in := range sortInputs(n) {
				want := slices.Clone(in)
				slices.SortFunc(want, emio.Compare)
				got := slices.Clone(in)
				Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d n=%d %s: Sort differs from slices.SortFunc", procs, n, name)
				}
				if n == 0 {
					continue
				}
				got = slices.Clone(in)
				lo, hi, _ := keyScan(got)
				radixSort(got, lo, hi, radixSmall, procs > 1, false)
				if !slices.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d n=%d %s: radixSort differs from slices.SortFunc", procs, n, name)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRadixSortDeclinesSkewedTop checks the skew fallback: with decline
// set, input whose top digit puts more than half of the elements in one
// bucket, all-equal keys included, is handed back unsorted and untouched,
// so Sort splits it across two goroutines by comparison.
func TestRadixSortDeclinesSkewedTop(t *testing.T) {
	for _, name := range []string{"skewed", "equalkeys"} {
		in := sortInputs(parallelSortMin)[name]
		s := slices.Clone(in)
		lo, hi, _ := keyScan(s)
		if radixSort(s, lo, hi, radixSmall, true, true) {
			t.Fatalf("%s: radixSort accepted input with most of it in one top bucket", name)
		}
		if !slices.Equal(s, in) {
			t.Errorf("%s: a declined radixSort moved elements", name)
		}
	}
}

// FuzzSortRadix drives the radix sort directly, bypassing Sort's size
// threshold and fallbacks, and checks it against slices.SortFunc. Each 17
// bytes of input are one element: a byte picking the key's width (so keys
// cluster, spread, or hit the int64 extremes), then Key and Aux. small sets
// the comparison cutoff (1 to 8, so tiny inputs still take distribution
// passes) and whether the top pass splits across two goroutines.
func FuzzSortRadix(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\xff\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), uint8(1))
	f.Add(make([]byte, 17*40), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, small uint8) {
		var s []emio.Elem
		for ; len(data) >= 17; data = data[17:] {
			key := int64(binary.LittleEndian.Uint64(data[1:]))
			switch data[0] % 4 {
			case 0:
				key %= 16
			case 1:
				key %= 1 << 20
			case 2:
				key = []int64{math.MinInt64, -1, 0, math.MaxInt64}[key&3]
			}
			s = append(s, emio.Elem{Key: key, Aux: int64(binary.LittleEndian.Uint64(data[9:])) % 8})
		}
		if len(s) == 0 {
			return
		}
		want := slices.Clone(s)
		slices.SortFunc(want, emio.Compare)
		lo, hi, _ := keyScan(s)
		radixSort(s, lo, hi, 1+int(small%8), small&8 != 0, false)
		if !slices.Equal(s, want) {
			t.Fatalf("radixSort = %v, want %v", s, want)
		}
	})
}

// TestSortHookedFallback checks that with a comparison hook installed Sort
// reports exactly the comparisons of the sequential reference sort.
func TestSortHookedFallback(t *testing.T) {
	in := workload.Elems(workload.Uniform, parallelSortMin+3, 32, 11)
	record := func(sort func([]emio.Elem)) []emio.Elem {
		var seen []emio.Elem
		emio.SetCompareHook(func(lo, hi emio.Elem) { seen = append(seen, lo, hi) })
		defer emio.SetCompareHook(nil)
		sort(slices.Clone(in))
		return seen
	}
	want := record(func(s []emio.Elem) { slices.SortFunc(s, emio.Compare) })
	got := record(Sort)
	if !slices.Equal(got, want) {
		t.Errorf("hooked Sort observed %d comparison endpoints, reference %d (or a different sequence)", len(got), len(want))
	}
}

// BenchmarkSortRun times the in-memory sort of one 2^18-element run, about
// the run-formation chunk at M=2^18, B=128, once per workload kind, and on
// equal keys over shuffled Aux, which workload's allequal (ascending Aux,
// already sorted) never exercises.
func BenchmarkSortRun(b *testing.B) {
	const n = 1 << 18
	buf := make([]emio.Elem, n)
	run := func(name string, in []emio.Elem) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				Sort(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
	for _, k := range workload.Kinds() {
		run(k.String(), workload.Elems(k, n, 128, 1))
	}
	run("allequal-shuffled", equalKeys(n))
}

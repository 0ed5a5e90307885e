package inmem

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// sortInputs are the distributions the specialised sort must agree with
// slices.SortFunc(emio.Compare) on: every workload kind, plus fully
// identical records (equal Key and Aux) and a few-distinct variant with
// repeated Aux values, which workload never generates.
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
	few := make([]emio.Elem, n)
	for i := range few {
		few[i] = emio.Elem{Key: int64(i*7919) % 5, Aux: int64(i % 3)}
	}
	in["fewvalues"] = few
	return in
}

// TestSortMatchesSortFunc checks Sort byte for byte against the reference
// slices.SortFunc(s, emio.Compare), at sizes around the two-way split
// threshold, and runs the split itself with GOMAXPROCS forced to 1 and 2 so
// both paths are covered on any host.
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
			}
		}
		runtime.GOMAXPROCS(prev)
	}
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

// BenchmarkSortRun times the in-memory sort of one run-formation chunk,
// (M/B-2)·B elements at M=2^18, B=128, against the generic reference.
func BenchmarkSortRun(b *testing.B) {
	const m, blk = 1 << 18, 128
	in := workload.Elems(workload.Uniform, (m/blk-2)*blk, blk, 1)
	buf := make([]emio.Elem, len(in))
	for _, c := range []struct {
		name string
		sort func([]emio.Elem)
	}{
		{"Sort", Sort},
		{"SortFunc", func(s []emio.Elem) { slices.SortFunc(s, emio.Compare) }},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", c.name, len(in)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				c.sort(buf)
			}
		})
	}
}

// Package inmem provides the in-memory comparison-based building blocks used
// at the base of every external-memory recursion in this repository: sorting,
// deterministic linear-time selection (the median-of-medians algorithm of
// Blum, Floyd, Pratt, Rivest and Tarjan, reference [3] of the paper), and
// multi-selection of several ranks at once.
//
// All routines order elements by the total order emio.Less (Key, then Aux)
// and operate on slices the caller has already charged to the memory budget.
// CPU time is free in the EM model, but these are the standard O(n) / O(n lg
// n) / O(n lg k) algorithms anyway, so benches run at realistic sizes.
package inmem

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/emio"
)

// parallelSortMin is the smallest slice Sort radix sorts or splits across
// two goroutines: below it the goroutine handoff costs more than the second
// core saves, and the radix passes' fixed per-bucket costs are not repaid.
const parallelSortMin = 1 << 15

// splitSample is how many evenly spaced elements the two-way split takes
// the median of. pdqsort's own ninther (9 elements) often lands 20-30% off
// the middle, which would leave one goroutine most of the work; the median
// of 127 is typically within ~5% of it.
const splitSample = 127

// radixOrdered is the disorder below which Sort compares instead of radix
// sorting: with fewer than radixOrdered adjacent pairs out of order, or
// fewer than radixOrdered in order, pdqsort's run detection and partial
// insertion sort beat a radix pass (~16 pairs was the crossover on 2^18
// elements, sorted or reversed with random swaps).
const radixOrdered = 16

// Sort sorts s in place by (Key, Aux). A slice of at least parallelSortMin
// elements is radix sorted (radix.go) on two goroutines when GOMAXPROCS > 1;
// run formation sorts M-element runs, and on page-cache backing that sort is
// the job's largest CPU cost. Input the radix sort handles badly is sorted
// by comparison instead: nearly sorted or nearly reversed input (counted in
// the same pre-scan that finds the key range; sorted input is left as it
// is and strictly descending input reversed), and input whose top digit
// puts more than half of the elements in one bucket. That path is a
// pattern-defeating quicksort specialised to emio.Elem (zsortelem.go),
// whose comparison inlines, split by one partition across two goroutines.
//
// The order is total on values, so every correct sort leaves the same bytes:
// the result is identical to slices.SortFunc(s, emio.Compare). While a
// comparison hook is installed (the transcript tests), Sort takes exactly
// that sequential path instead, so the hook sees the same comparisons, in
// the same order, on one goroutine.
func Sort(s []emio.Elem) {
	if emio.CompareHooked() {
		slices.SortFunc(s, emio.Compare)
		return
	}
	n := len(s)
	limit := bits.Len(uint(n))
	if n < parallelSortMin {
		pdqsortElem(s, 0, n, limit)
		return
	}
	par := runtime.GOMAXPROCS(0) > 1
	lo, hi, descents := keyScan(s)
	switch {
	case descents == 0:
		return
	case descents == n-1: // strictly descending
		reverseRangeElem(s, 0, n)
		return
	case descents >= radixOrdered && descents < n-radixOrdered:
		if radixSort(s, lo, hi, radixSmall, par, true) {
			return
		}
	}
	if !par {
		pdqsortElem(s, 0, n, limit)
		return
	}
	// s[mid] lands in its final place, below-pivot elements to its left; the
	// right side's pdqsort may read s[mid] (its predecessor) but no side
	// writes outside its own range.
	mid, _ := partitionElem(s, 0, n, splitPivot(s))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pdqsortElem(s, 0, mid, limit)
	}()
	pdqsortElem(s, mid+1, n, limit)
	wg.Wait()
}

// splitPivot returns the index of the median of splitSample evenly spaced
// elements of s, which must hold at least splitSample elements.
func splitPivot(s []emio.Elem) int {
	var idx [splitSample]int
	step := len(s) / splitSample
	for k := range idx {
		idx[k] = k * step
		for j := k; j > 0 && lessElem(s[idx[j]], s[idx[j-1]]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx[splitSample/2]
}

// IsSorted reports whether s is nondecreasing by (Key, Aux).
func IsSorted(s []emio.Elem) bool {
	for i := 1; i < len(s); i++ {
		if emio.Less(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// Select returns the element of rank k in s (1-based: k=1 is the smallest),
// reordering s in the process. It runs in worst-case linear time via
// median-of-medians pivoting. It panics if k is out of [1, len(s)]; that is a
// caller bug, never a data-dependent condition.
func Select(s []emio.Elem, k int) emio.Elem {
	if k < 1 || k > len(s) {
		panic(fmt.Sprintf("inmem.Select: rank %d out of [1,%d]", k, len(s)))
	}
	lo, hi := 0, len(s) // select within s[lo:hi]
	k--                 // to 0-based index
	for {
		n := hi - lo
		if n <= 5 {
			insertionSort(s[lo:hi])
			return s[lo+k]
		}
		pivot := medianOfMedians(s[lo:hi])
		lt, eq := partition3(s[lo:hi], pivot)
		switch {
		case k < lt:
			hi = lo + lt
		case k < lt+eq:
			return pivot
		default:
			lo, k = lo+lt+eq, k-lt-eq
		}
	}
}

// Median returns the lower median of s (rank ceil(n/2)).
func Median(s []emio.Elem) emio.Elem {
	return Select(s, (len(s)+1)/2)
}

// MedianOfFive returns the lower median of a group of at most five elements
// without allocating; it is the workhorse of the subgroup phase of the
// L-intermixed selection algorithm (paper §4.1). The slice is reordered.
func MedianOfFive(s []emio.Elem) emio.Elem {
	if len(s) == 0 || len(s) > 5 {
		panic(fmt.Sprintf("inmem.MedianOfFive: group size %d", len(s)))
	}
	insertionSort(s)
	return s[(len(s)-1)/2]
}

// MultiSelect returns the elements of the given 1-based ranks in s, in the
// same order as ranks. Ranks need not be sorted or distinct. s is reordered.
// The running time is O(n lg k) by recursing on the middle requested rank.
func MultiSelect(s []emio.Elem, ranks []int) []emio.Elem {
	for _, r := range ranks {
		if r < 1 || r > len(s) {
			panic(fmt.Sprintf("inmem.MultiSelect: rank %d out of [1,%d]", r, len(s)))
		}
	}
	out := make([]emio.Elem, len(ranks))
	// Order the rank requests, keeping their output positions.
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return ranks[a] - ranks[b] })
	multiSelect(s, 0, ranks, idx, out)
	return out
}

// multiSelect answers the requests idx (sorted by rank) against the subarray
// s, whose elements occupy global ranks base+1 .. base+len(s).
func multiSelect(s []emio.Elem, base int, ranks []int, idx []int, out []emio.Elem) {
	if len(idx) == 0 {
		return
	}
	mid := len(idx) / 2
	r := ranks[idx[mid]] - base // rank of the middle request within s
	e := Select(s, r)
	// Answer every request with this exact rank (duplicates collapse here).
	lo, hi := mid, mid+1
	for lo > 0 && ranks[idx[lo-1]] == ranks[idx[mid]] {
		lo--
	}
	for hi < len(idx) && ranks[idx[hi]] == ranks[idx[mid]] {
		hi++
	}
	for _, i := range idx[lo:hi] {
		out[i] = e
	}
	// Select left s partitioned around rank r: s[:r] holds the r smallest.
	multiSelect(s[:r], base, ranks, idx[:lo], out)
	multiSelect(s[r:], base+r, ranks, idx[hi:], out)
}

// Rank returns the number of elements of s that are <= e in the total order.
func Rank(s []emio.Elem, e emio.Elem) int {
	n := 0
	for _, x := range s {
		if !emio.Less(e, x) {
			n++
		}
	}
	return n
}

// medianOfMedians returns a pivot guaranteed to have at least 3n/10-O(1)
// elements on each side: the classic BFPRT pivot.
func medianOfMedians(s []emio.Elem) emio.Elem {
	n := len(s)
	// Gather the median of each group of 5 into the prefix of s.
	m := 0
	for i := 0; i < n; i += 5 {
		g := s[i:min(i+5, n)]
		med := MedianOfFive(g)
		s[m], s[i+(len(g)-1)/2] = med, s[m]
		m++
	}
	if m == 1 {
		return s[0]
	}
	return Select(s[:m], (m+1)/2)
}

// partition3 three-way partitions s around pivot, returning the count of
// elements strictly less than the pivot and the count equal to it. With the
// (Key, Aux) total order on distinct records eq is normally 1, but the
// routine is correct for arbitrary duplicates.
func partition3(s []emio.Elem, pivot emio.Elem) (lt, eq int) {
	i, j, k := 0, 0, len(s) // invariant: s[:i] < p, s[i:j] == p, s[k:] > p
	for j < k {
		c := emio.Compare(s[j], pivot)
		switch {
		case c < 0:
			s[i], s[j] = s[j], s[i]
			i++
			j++
		case c > 0:
			k--
			s[j], s[k] = s[k], s[j]
		default:
			j++
		}
	}
	return i, j - i
}

func insertionSort(s []emio.Elem) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && emio.Less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

package inmem

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/emio"
)

// radixSmall is the bucket size at or below which the radix sort finishes a
// bucket by comparison (pdqsort, which insertion sorts up to 12 elements)
// instead of another distribution pass. A pass costs a fixed ~2 µs for its
// 256 counters and bucket loops whatever the bucket size; at 2^18 elements,
// keys repeated ~40 times each sorted twice as fast with 64 here as with 32.
const radixSmall = 64

// radixMaxDepth caps the distribution passes below the top one. Eight-bit
// digits spread uniform keys so that two or three passes leave only small
// buckets; a bucket still large after radixMaxDepth passes holds keys
// clustered far tighter than their range, and pdqsort finishes it.
const radixMaxDepth = 4

// keyScan is one pass over s: the least and greatest Key and the number of
// descents (adjacent pairs out of (Key, Aux) order).
func keyScan(s []emio.Elem) (lo, hi int64, descents int) {
	lo, hi = s[0].Key, s[0].Key
	for i := 1; i < len(s); i++ {
		k := s[i].Key
		lo = min(lo, k)
		hi = max(hi, k)
		descents += emio.LessBit(s[i], s[i-1])
	}
	return lo, hi, descents
}

// radixSort sorts s, whose keys lie in [lo, hi], by (Key, Aux) with an
// in-place most-significant-digit radix sort: American-flag passes over
// 8-bit digits of uint64(Key-lo), which covers the full int64 range, from
// the highest bit that varies down. Buckets of at most small elements are
// pdqsorted, and larger buckets of equal keys are radix sorted by Aux
// (sortEqualKeys). With par set, the buckets of the top pass are split at
// the median count between the caller's goroutine and one more.
//
// With decline set, radixSort gives up before moving any element when one
// top-level bucket would hold more than half of s, all-equal keys included,
// returning false; the caller then sorts by comparison. With decline unset
// it always sorts and returns true.
func radixSort(s []emio.Elem, lo, hi int64, small int, par, decline bool) bool {
	if lo == hi {
		if decline {
			return false
		}
		pdqsortElem(s, 0, len(s), bits.Len(uint(len(s))))
		return true
	}
	shift := uint(max(bits.Len64(uint64(hi-lo))-8, 0))
	var count [256]int
	countDigits(s, lo, shift, &count)
	if decline && slices.Max(count[:]) > len(s)/2 {
		return false
	}
	var ends [256]int
	permute(s, lo, shift, &count, &ends)
	split := 0 // the buckets below split go to a second goroutine
	if par {
		for split < 255 && ends[split] < len(s)/2 {
			split++
		}
	}
	var wg sync.WaitGroup
	if split > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortBuckets(s, lo, shift, 0, small, ends[:split], 0)
		}()
	}
	start := 0
	if split > 0 {
		start = ends[split-1]
	}
	sortBuckets(s, lo, shift, 0, small, ends[split:], start)
	wg.Wait()
	return true
}

// countDigits counts the elements of s per digit (uint64(Key-lo)>>shift)&255.
func countDigits(s []emio.Elem, lo int64, shift uint, count *[256]int) {
	for i := range s {
		count[uint8(uint64(s[i].Key-lo)>>shift)]++
	}
}

// permute moves every element of s into its digit's bucket, given the
// bucket sizes, and sets ends[d] to the end offset of bucket d. It is the
// American flag sort's cycle-leader pass: each element is swapped straight
// into the next free slot of its bucket, so every element moves at most
// once.
func permute(s []emio.Elem, lo int64, shift uint, count, ends *[256]int) {
	var next [256]int // next unfilled slot of each bucket
	sum := 0
	for d, c := range count {
		next[d] = sum
		sum += c
		ends[d] = sum
	}
	for d := range next {
		end := ends[d]
		for i := next[d]; i < end; i = next[d] {
			v := s[i]
			t := uint8(uint64(v.Key-lo) >> shift)
			for int(t) != d {
				j := next[t]
				next[t] = j + 1
				v, s[j] = s[j], v
				t = uint8(uint64(v.Key-lo) >> shift)
			}
			s[i] = v
			next[d] = i + 1
		}
	}
}

// sortBuckets finishes the buckets of one pass: bucket i spans s[start:
// ends[0]] for i = 0 and s[ends[i-1]:ends[i]] after. shift is the digit
// shift of the pass that formed them and depth its level below the top.
func sortBuckets(s []emio.Elem, lo int64, shift uint, depth, small int, ends []int, start int) {
	for _, end := range ends {
		sortBucket(s[start:end], lo, shift, depth, small)
		start = end
	}
}

// sortBucket sorts one bucket whose keys agree on every bit from shift up.
func sortBucket(b []emio.Elem, lo int64, shift uint, depth, small int) {
	switch {
	case len(b) <= small || depth == radixMaxDepth:
		pdqsortElem(b, 0, len(b), bits.Len(uint(len(b))))
	case shift == 0:
		sortEqualKeys(b, small)
	default:
		shift = max(shift, 8) - 8
		var count [256]int
		countDigits(b, lo, shift, &count)
		var ends [256]int
		if c := count[uint8(uint64(b[0].Key-lo)>>shift)]; c == len(b) {
			// One digit value: nothing to move, go straight to the next digit.
			ends[255] = len(b)
		} else {
			permute(b, lo, shift, &count, &ends)
		}
		sortBuckets(b, lo, shift, depth+1, small, ends[:], 0)
	}
}

// sortEqualKeys sorts a bucket whose keys are all equal, that is by Aux: it
// swaps each element's Key and Aux, radix sorts by the swapped Key, and
// swaps back. With the original Key constant, (Aux, Key) order is (Key,
// Aux) order.
func sortEqualKeys(b []emio.Elem, small int) {
	for i := range b {
		b[i].Key, b[i].Aux = b[i].Aux, b[i].Key
	}
	if lo, hi, _ := keyScan(b); lo != hi { // else the elements are identical
		radixSort(b, lo, hi, small, false, false)
	}
	for i := range b {
		b[i].Key, b[i].Aux = b[i].Aux, b[i].Key
	}
}

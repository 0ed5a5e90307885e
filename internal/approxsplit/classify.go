package approxsplit

import (
	"sort"

	"repro/internal/emio"
)

// ChunkLen is the number of elements the scan loops classify per Classify
// call. Their bucket-index scratch is a [ChunkLen]int32 stack array: 256
// bytes whatever M and B are, so it is O(1) words and carries no memory
// charge.
const ChunkLen = 64

// BucketOf returns the index in [0, len(sp)] of the bucket that e falls in:
// bucket i is the interval (sp[i-1], sp[i]] in the total order, so the
// result is the first i with !Less(sp[i], e). Branchless binary search; CPU
// only.
func BucketOf(sp []emio.Elem, e emio.Elem) int {
	if emio.CompareHooked() {
		return searchObserved(sp, e)
	}
	return lowerBound(sp, e)
}

// Classify sets out[i] = BucketOf(sp, es[i]) for every i; out must hold at
// least len(es) entries. Four branchless searches run interleaved so their
// dependent loads overlap; on a splitter array that spills out of L1 this
// roughly halves the cost per element against BucketOf.
//
// While a comparison hook is installed (the transcript tests) every element
// takes the observed sort.Search + emio.Less path instead, so the hook sees
// the same comparisons, in the same order, as a loop of per-element searches.
func Classify(sp, es []emio.Elem, out []int32) {
	out = out[:len(es)]
	if emio.CompareHooked() {
		for i, e := range es {
			out[i] = int32(searchObserved(sp, e))
		}
		return
	}
	n := len(sp)
	if n == 0 {
		clear(out)
		return
	}
	i := 0
	for ; i+4 <= len(es); i += 4 {
		e0, e1, e2, e3 := es[i], es[i+1], es[i+2], es[i+3]
		b0, b1, b2, b3 := 0, 0, 0, 0
		for m := n; m > 1; {
			half := m >> 1
			b0 += half & -emio.LessBit(sp[b0+half], e0)
			b1 += half & -emio.LessBit(sp[b1+half], e1)
			b2 += half & -emio.LessBit(sp[b2+half], e2)
			b3 += half & -emio.LessBit(sp[b3+half], e3)
			m -= half
		}
		out[i] = int32(b0 + emio.LessBit(sp[b0], e0))
		out[i+1] = int32(b1 + emio.LessBit(sp[b1], e1))
		out[i+2] = int32(b2 + emio.LessBit(sp[b2], e2))
		out[i+3] = int32(b3 + emio.LessBit(sp[b3], e3))
	}
	for ; i < len(es); i++ {
		out[i] = int32(lowerBound(sp, es[i]))
	}
}

// lowerBound is the scalar branchless search: the number of elements of the
// sorted sp that precede e. The candidate window [base, base+m] always holds
// the answer, and each step halves m by moving base with a mask instead of
// a branch, so every probe of a given sp runs the same number of steps.
func lowerBound(sp []emio.Elem, e emio.Elem) int {
	n := len(sp)
	if n == 0 {
		return 0
	}
	base := 0
	for m := n; m > 1; {
		half := m >> 1
		base += half & -emio.LessBit(sp[base+half], e)
		m -= half
	}
	return base + emio.LessBit(sp[base], e)
}

// LowerBoundInt64 is lowerBound over an ascending int64 slice: the first i
// with s[i] >= v, or len(s) if there is none.
func LowerBoundInt64(s []int64, v int64) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	base := 0
	for m := n; m > 1; {
		half := m >> 1
		base += half & -b2i(s[base+half] < v)
		m -= half
	}
	return base + b2i(s[base] < v)
}

// b2i converts a bool to 0 or 1; the compiler lowers it to SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// searchObserved is the hook-visible search: sort.Search probing with
// emio.Less, so every comparison reaches the installed observer.
func searchObserved(sp []emio.Elem, e emio.Elem) int {
	return sort.Search(len(sp), func(i int) bool { return !emio.Less(sp[i], e) })
}

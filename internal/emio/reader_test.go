package emio

import (
	"errors"
	"testing"
)

// readMixed drains r with a fixed rotation of Next and NextBlock calls,
// checking Remaining after each call, and returns the elements in read order.
func readMixed(t *testing.T, r *Reader, n int) []Elem {
	t.Helper()
	var got []Elem
	for step := 0; ; step++ {
		if step%3 == 1 {
			blk, ok := r.NextBlock()
			if !ok {
				break
			}
			if len(blk) == 0 {
				t.Fatal("NextBlock returned an empty block with ok=true")
			}
			got = append(got, blk...)
		} else {
			e, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, e)
		}
		if rem := r.Remaining(); rem != int64(n-len(got)) {
			t.Fatalf("after %d elements Remaining=%d, want %d", len(got), rem, n-len(got))
		}
	}
	if rem := r.Remaining(); rem != 0 {
		t.Fatalf("Remaining at EOF = %d", rem)
	}
	return got
}

func TestReaderNextBlockMixedWithNext(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 37, 64, 100} {
		ctx := mustCtx(t, 64, 8)
		want := seqElems(n)
		f := BuildFile(ctx.Disk(), "mixed", want)
		r, err := NewReader(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		got := readMixed(t, r, n)
		r.Close()
		if len(got) != n {
			t.Fatalf("n=%d: read %d elements", n, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, got[i], want[i])
			}
		}
		if reads, want := ctx.Disk().Stats().Reads, int64((n+7)/8); reads != want {
			t.Errorf("n=%d: mixed read cost %d I/Os, want ceil(n/B)=%d", n, reads, want)
		}
	}
}

func TestReaderNextBlockIOCount(t *testing.T) {
	for _, n := range []int{1, 8, 9, 100, 256} {
		ctx := mustCtx(t, 64, 8)
		f := BuildFile(ctx.Disk(), "scan", seqElems(n))
		r, _ := NewReader(ctx, f)
		total, calls := 0, 0
		for {
			blk, ok := r.NextBlock()
			if !ok {
				break
			}
			total += len(blk)
			calls++
		}
		r.Close()
		wantBlocks := (n + 7) / 8
		if total != n || calls != wantBlocks {
			t.Errorf("n=%d: %d elements in %d blocks, want %d in %d", n, total, calls, n, wantBlocks)
		}
		if got := ctx.Disk().Stats(); got.Reads != int64(wantBlocks) || got.Writes != 0 {
			t.Errorf("n=%d: stats=%v, want reads=%d writes=0", n, got, wantBlocks)
		}
	}
}

func TestReaderNextBlockConsumeReclaimsPrefix(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	d.SetDiskBudget(100 * d.BlockBytes())

	const nb = 12
	f := ctx.Scratch("stream")
	buf, _ := ctx.AllocElems(8)
	copy(buf, seqElems(8))
	for i := 0; i < nb; i++ {
		if err := f.AppendBlock(buf); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ctx.FreeElems(buf)

	r, err := NewReader(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	r.Consume()
	lag := d.ConsumeLag()
	for k := int64(1); ; k++ {
		if _, ok := r.NextBlock(); !ok {
			break
		}
		// After the k-th block, everything more than lag blocks behind it
		// is reclaimed, exactly as under Next.
		live := int64(nb) - max(0, k-1-lag)
		if got := d.DiskBytes(); got != live*d.BlockBytes() {
			t.Fatalf("after block %d DiskBytes=%d, want %d", k, got, live*d.BlockBytes())
		}
	}
	r.Close()
	f.Release()
	if got := d.DiskBytes(); got != 0 {
		t.Errorf("DiskBytes after final release = %d, want 0", got)
	}
}

func TestReaderNextBlockFaultIsSticky(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	f := BuildFile(ctx.Disk(), "flaky", seqElems(32))
	boom := errors.New("boom")
	ctx.Disk().SetReadFault(func(_ *File, block int) error {
		if block == 2 {
			return boom
		}
		return nil
	})
	defer ctx.Disk().SetReadFault(nil)
	r, _ := NewReader(ctx, f)
	defer r.Close()
	var got int
	for {
		blk, ok := r.NextBlock()
		if !ok {
			break
		}
		got += len(blk)
	}
	if got != 16 {
		t.Errorf("read %d elements before fault, want 16", got)
	}
	if !errors.Is(r.Err(), boom) {
		t.Fatalf("Err() = %v, want boom", r.Err())
	}
	before := ctx.Disk().Stats()
	if blk, ok := r.NextBlock(); ok || blk != nil {
		t.Error("NextBlock succeeded after sticky error")
	}
	if _, ok := r.Next(); ok {
		t.Error("Next succeeded after sticky error")
	}
	if ctx.Disk().Stats() != before {
		t.Error("sticky error still performed I/O")
	}
	if !errors.Is(r.Err(), boom) {
		t.Errorf("Err() changed to %v", r.Err())
	}
}

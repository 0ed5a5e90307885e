package empar

// Engine-level bit-identity: across memory configurations (spanning the
// sharded path, both fallbacks and a tiny-B machine), the engine's output
// must equal the sequential extsort output byte for byte at every worker
// count, and the parent context must balance to zero live memory and blocks
// once the caller releases its files.

import (
	"fmt"
	"testing"

	"repro/internal/emio"
	"repro/internal/extsort"
)

func TestEngineMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		m, b int
		n    int64
		w    int
	}{
		{1024, 32, 10000, 1},
		{1024, 32, 10000, 2},
		{1024, 32, 10000, 4},
		{1024, 32, 63, 3},   // tiny: sequential fallback
		{1024, 32, 0, 2},    // empty
		{192, 32, 5000, 2},  // S=1 (M < 6*2*B=384? 192<384 yes) fallback
		{64, 1, 3000, 8},    // tiny B
		{4096, 8, 20000, 8}, // S=8
	} {
		t.Run(fmt.Sprintf("M%d_B%d_N%d_w%d", tc.m, tc.b, tc.n, tc.w), func(t *testing.T) {
			mk := func() (*emio.Ctx, *emio.File) {
				ctx, err := emio.NewCtx(emio.Config{M: tc.m, B: tc.b})
				if err != nil {
					t.Fatal(err)
				}
				elems := make([]emio.Elem, tc.n)
				rng := uint64(12345)
				for i := range elems {
					rng = rng*6364136223846793005 + 1442695040888963407
					elems[i] = emio.Elem{Key: int64(rng >> 30), Aux: int64(i)}
				}
				return ctx, emio.BuildFile(ctx.Disk(), "in", elems)
			}
			sctx, sin := mk()
			want, err := extsort.Sort(sctx, sin)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap := want.Snapshot()

			pctx, pin := mk()
			eng, err := New(pctx, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Sort(pin)
			if err != nil {
				t.Fatal(err)
			}
			gotSnap := got.Snapshot()
			if len(gotSnap) != len(wantSnap) {
				t.Fatalf("len %d want %d", len(gotSnap), len(wantSnap))
			}
			for i := range gotSnap {
				if gotSnap[i] != wantSnap[i] {
					t.Fatalf("elem %d: %v want %v", i, gotSnap[i], wantSnap[i])
				}
			}
			// hygiene: shard work fully folded, parent accounting balanced
			got.Release()
			pin.Release()
			if used := pctx.Mem().Used(); used != 0 {
				t.Fatalf("parent mem used %d after release", used)
			}
			if lb := pctx.Disk().LiveBlocks(); lb != 0 {
				t.Fatalf("parent live blocks %d after release", lb)
			}
			t.Logf("report: %+v", eng.LastReport())
		})
	}
}

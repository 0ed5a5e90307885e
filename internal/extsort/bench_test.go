package extsort

import (
	"slices"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// BenchmarkMergeRuns times one 9-way merge of 2^18-element runs on a
// memory-backed disk at M=2^18, B=128: the merge pass of sorting 2^21 keys
// at that shape, with no physical I/O, so it measures the tournament tree
// and the stream buffers. ns/elem is per merged element.
func BenchmarkMergeRuns(b *testing.B) {
	const m, blk, runs, runLen = 1 << 18, 128, 9, 1 << 18
	ctx, err := emio.NewCtx(emio.Config{M: m, B: blk})
	if err != nil {
		b.Fatal(err)
	}
	group := make([]*emio.File, runs)
	for i := range group {
		r := workload.Elems(workload.Uniform, runLen, blk, uint64(i+1))
		slices.SortFunc(r, emio.Compare)
		group[i] = emio.BuildFile(ctx.Disk(), "run", r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := mergeGroup(ctx, group, mergeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs*runLen), "ns/elem")
}

// Command embench regenerates the paper's evaluation — Table 1 and the
// companion results — as markdown tables: for every row it sweeps the
// relevant parameter on the simulated EM machine, measures real block I/Os,
// and prints them next to the paper's formula (upper bound) and the
// information-theoretic floor (lower bound). The output is what
// EXPERIMENTS.md records.
//
// Usage:
//
//	embench [-n 262144] [-m 4096] [-b 32] [-quick] [-dist uniform] [-json] [-trace]
//
// -quick shrinks N to 2^15 for a smoke run, -dist picks the input
// distribution (see internal/workload), -json emits one JSON array of
// measurement rows instead of markdown, and -trace prints each run's phase
// trace (span tree) to stderr. Every run is on the in-memory simulation, so
// the counts are deterministic for a given flag set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	empart "repro"
	"repro/internal/emio"
	"repro/internal/imcomp"
	"repro/internal/intermix"
	"repro/internal/workload"
)

// options are the command-line flags.
type options struct {
	n, m, b int
	quick   bool
	dist    string
	json    bool
	trace   bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("embench: ")
	var o options
	flag.IntVar(&o.n, "n", 1<<18, "input size N in elements")
	flag.IntVar(&o.m, "m", 1<<12, "memory size M in elements")
	flag.IntVar(&o.b, "b", 1<<5, "block size B in elements")
	flag.BoolVar(&o.quick, "quick", false, "smaller N for a fast smoke run")
	flag.StringVar(&o.dist, "dist", "uniform", "input distribution (see internal/workload)")
	flag.BoolVar(&o.json, "json", false, "emit one JSON array of measurement rows instead of markdown")
	flag.BoolVar(&o.trace, "trace", false, "print a per-run phase trace (span tree) to stderr")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "embench: done")
}

type row struct {
	Section string  `json:"section,omitempty"`
	Label   string  `json:"label"`
	IOs     int64   `json:"ios"`
	Scans   float64 `json:"scans"`
	UB      float64 `json:"ub,omitempty"`
	LB      float64 `json:"lb,omitempty"`
	RatioUB float64 `json:"ratioUB,omitempty"`
	RatioLB float64 `json:"ratioLB,omitempty"`
}

// released adapts an algorithm call to a measurement: it frees the output
// and keeps the error.
func released[T interface{ Release() }](out T, err error) error {
	if err == nil {
		out.Release()
	}
	return err
}

// run measures every section and writes the markdown tables (or, with
// o.json, one JSON array of rows) to w.
func run(w io.Writer, o options) error {
	if o.quick {
		o.n = 1 << 15
	}
	n := int64(o.n)
	cfg := empart.Config{M: o.m, B: o.b}
	if err := cfg.Validate(); err != nil {
		return err
	}
	kind, err := workload.KindByName(o.dist)
	if err != nil {
		return err
	}
	mc := empart.Machine{M: int64(o.m), B: int64(o.b)}
	scan := float64(n) / float64(o.b)
	md := func(format string, args ...any) {
		if !o.json {
			fmt.Fprintf(w, format, args...)
		}
	}

	md("# Table 1 reproduction — N=%d, M=%d, B=%d, dist=%s\n\n", n, o.m, o.b, kind)
	md("One scan = %.0f I/Os. `ratioUB` is measured/upper-bound-formula (the fitted\n", scan)
	md("constant; flat across a sweep = the formula captures the shape). `ratioLB` is\n")
	md("measured/lower-bound-floor (must stay >= 1; O(1) = the algorithm is optimal).\n\n")

	var jsonRows []row

	// measureN runs fn on a fresh System holding nn input elements and
	// returns the row of its logical I/O count against ub and lb.
	measureN := func(nn int64, label string, ub, lb float64, fn func(sys *empart.System, f *empart.File) error) (row, error) {
		sys, err := empart.New(cfg)
		if err != nil {
			return row{}, err
		}
		f := sys.Stage(workload.Elems(kind, int(nn), o.b, 0xeb1e55))
		sys.ResetStats()
		if o.trace {
			sys.EnableTracing()
		}
		if err := fn(sys, f); err != nil {
			return row{}, fmt.Errorf("%s: %w", label, err)
		}
		if o.trace {
			fmt.Fprintf(os.Stderr, "--- trace %s ---\n%s", label, sys.TraceReport())
		}
		ios := sys.Stats().Total()
		r := row{Label: label, IOs: ios, Scans: float64(ios) / (float64(nn) / float64(o.b)), UB: ub, LB: lb}
		if ub > 0 {
			r.RatioUB = float64(ios) / ub
		}
		if lb > 0 {
			r.RatioLB = float64(ios) / lb
		}
		return r, nil
	}
	// sweep appends one measured row at the default N to rows.
	sweep := func(rows *[]row, label string, ub, lb float64, fn func(sys *empart.System, f *empart.File) error) error {
		r, err := measureN(n, label, ub, lb, fn)
		if err != nil {
			return err
		}
		*rows = append(*rows, r)
		return nil
	}
	printTable := func(title, paramCol string, rows []row) {
		for _, r := range rows {
			r.Section = title
			jsonRows = append(jsonRows, r)
		}
		md("## %s\n\n", title)
		md("| %s | I/Os | scans | UB formula | ratioUB | LB floor | ratioLB |\n", paramCol)
		md("|---|---|---|---|---|---|---|\n")
		for _, r := range rows {
			md("| %s | %d | %.3f | %.0f | %.2f | %.0f | %.2f |\n",
				r.Label, r.IOs, r.Scans, r.UB, r.RatioUB, r.LB, r.RatioLB)
		}
		md("\n")
	}
	splitters := func(p empart.Params) func(sys *empart.System, f *empart.File) error {
		return func(sys *empart.System, f *empart.File) error { return released(sys.Splitters(f, p)) }
	}
	partition := func(p empart.Params) func(sys *empart.System, f *empart.File) error {
		return func(sys *empart.System, f *empart.File) error { return released(sys.Partition(f, p)) }
	}

	// --- T1-R-SPL ---------------------------------------------------------
	{
		k := int64(64)
		var rows []row
		seen := map[int64]bool{}
		for _, a := range []int64{2, 8, 32, 128, 512, 2048, n / k} {
			if a > n/k || seen[a] {
				continue
			}
			seen[a] = true
			if err := sweep(&rows, fmt.Sprintf("a=%d", a),
				mc.SplittersRight(a, k), mc.RightSplittersFloor(a, k),
				splitters(empart.Params{K: k, A: a, B: n})); err != nil {
				return err
			}
		}
		printTable(fmt.Sprintf("T1-R-SPL: right-grounded K-splitters (K=%d, b=N) — sublinear for small a", k), "a", rows)
	}

	// --- T1-L-SPL ---------------------------------------------------------
	{
		k := int64(64)
		var rows []row
		for _, bb := range []int64{n / 64, n / 16, n / 4, n / 2} {
			if err := sweep(&rows, fmt.Sprintf("b=N/%d", n/bb),
				mc.SplittersLeft(n, bb), mc.LeftSplittersFloor(n, bb),
				splitters(empart.Params{K: k, A: 0, B: bb})); err != nil {
				return err
			}
		}
		printTable(fmt.Sprintf("T1-L-SPL: left-grounded K-splitters (K=%d, a=0)", k), "b", rows)
	}

	// --- T1-2-SPL ---------------------------------------------------------
	{
		k := int64(64)
		nk := n / k
		var rows []row
		for _, tc := range []struct{ a, b int64 }{
			{nk, nk}, {nk / 8, nk * 4}, {4, n / 4}, {nk / 2, n / 2},
		} {
			if err := sweep(&rows, fmt.Sprintf("a=%d b=%d", tc.a, tc.b),
				mc.SplittersTwoSidedUB(n, k, tc.a, tc.b), mc.SplittersTwoSidedLB(n, k, tc.a, tc.b),
				splitters(empart.Params{K: k, A: tc.a, B: tc.b})); err != nil {
				return err
			}
		}
		printTable(fmt.Sprintf("T1-2-SPL: two-sided K-splitters (K=%d)", k), "a, b", rows)
	}

	// --- T1-R-PAR ---------------------------------------------------------
	{
		k := int64(64)
		var rows []row
		seen := map[int64]bool{}
		for _, a := range []int64{0, 16, 256, 2048, n / k} {
			if a > n/k || seen[a] {
				continue
			}
			seen[a] = true
			if err := sweep(&rows, fmt.Sprintf("a=%d", a),
				mc.PartitionRightUB(n, k, a), mc.PartitionRightLB(n),
				partition(empart.Params{K: k, A: a, B: n})); err != nil {
				return err
			}
		}
		printTable(fmt.Sprintf("T1-R-PAR: right-grounded K-partitioning (K=%d, b=N)", k), "a", rows)
	}

	// --- T1-L-PAR ---------------------------------------------------------
	{
		var rows []row
		for _, bb := range []int64{n / 256, n / 64, n / 16, n / 4, n / 2} {
			if err := sweep(&rows, fmt.Sprintf("b=N/%d", n/bb),
				mc.PartitionLeft(n, bb), mc.PartitionLeft(n, bb),
				partition(empart.Params{K: 256, A: 0, B: bb})); err != nil {
				return err
			}
		}
		printTable("T1-L-PAR: left-grounded K-partitioning (K=256, a=0) — Θ matches, so LB floor = UB formula", "b", rows)

		// K-independence sweep: K must satisfy K >= N/b = 8 and divide N.
		var flat []row
		for _, k := range []int64{8, 64, 256, 4096} {
			if err := sweep(&flat, fmt.Sprintf("K=%d", k),
				mc.PartitionLeft(n, n/8), 0,
				partition(empart.Params{K: k, A: 0, B: n / 8})); err != nil {
				return err
			}
		}
		printTable("T1-L-PAR flatness: cost is independent of K at fixed b=N/8 (Theorem 3)", "K", flat)
	}

	// --- T1-2-PAR ---------------------------------------------------------
	{
		k := int64(64)
		nk := n / k
		var rows []row
		for _, tc := range []struct{ a, b int64 }{
			{nk, nk}, {nk / 8, nk * 4}, {4, n / 4},
		} {
			if err := sweep(&rows, fmt.Sprintf("a=%d b=%d", tc.a, tc.b),
				mc.PartitionTwoSidedUB(n, k, tc.a, tc.b), mc.PartitionTwoSidedLB(n, tc.b),
				partition(empart.Params{K: k, A: tc.a, B: tc.b})); err != nil {
				return err
			}
		}
		printTable(fmt.Sprintf("T1-2-PAR: two-sided K-partitioning (K=%d)", k), "a, b", rows)
	}

	// --- THM4-SEP ----------------------------------------------------------
	{
		md("## THM4-SEP: multi-selection vs multi-partition (equi-spaced, Theorem 4)\n\n")
		md("| K | msel I/Os | msel formula | mpart I/Os | mpart formula | mpart/msel measured | predicted |\n")
		md("|---|---|---|---|---|---|---|\n")
		for _, k := range []int64{4, 32, 256, 2048, n / int64(o.b)} {
			ranks := make([]int64, k-1)
			sizes := make([]int64, k)
			prev := int64(0)
			for i := int64(0); i < k; i++ {
				cum := (i + 1) * n / k
				if i < k-1 {
					ranks[i] = cum
				}
				sizes[i] = cum - prev
				prev = cum
			}
			ms, err := measureN(n, fmt.Sprintf("msel K=%d", k), mc.MultiSelect(n, k), 0, func(sys *empart.System, f *empart.File) error {
				return released(sys.MultiSelect(f, ranks))
			})
			if err != nil {
				return err
			}
			mp, err := measureN(n, fmt.Sprintf("mpart K=%d", k), mc.MultiPartition(n, k), 0, func(sys *empart.System, f *empart.File) error {
				return released(sys.MultiPartition(f, sizes))
			})
			if err != nil {
				return err
			}
			ms.Section, mp.Section = "THM4-SEP", "THM4-SEP"
			jsonRows = append(jsonRows, ms, mp)
			md("| %d | %d | %.0f | %d | %.0f | %.2f | %.2f |\n",
				k, ms.IOs, ms.UB, mp.IOs, mp.UB,
				float64(mp.IOs)/float64(ms.IOs), mp.UB/ms.UB)
		}
		md("\n")
	}

	// --- SORT-BASE ----------------------------------------------------------
	{
		var rows []row
		for _, nn := range []int64{n / 4, n, n * 2} {
			r, err := measureN(nn, fmt.Sprintf("N=%d", nn), mc.Sort(nn), mc.SortFloor(nn), func(sys *empart.System, f *empart.File) error {
				return released(sys.Sort(f))
			})
			if err != nil {
				return err
			}
			rows = append(rows, r)
		}
		printTable("SORT-BASE: external merge sort (the trivial solution to every row)", "N", rows)
	}

	// --- INTERMIX -----------------------------------------------------------
	{
		md("## INTERMIX: L-intermixed selection is linear (Lemma 6)\n\n")
		md("| L | I/Os | scans |\n|---|---|---|\n")
		maxL := intermix.MaxGroups(emio.Config{M: o.m, B: o.b})
		for _, l := range []int{1, 2, 4, maxL} {
			if l < 1 {
				continue
			}
			ctx, err := emio.NewCtx(emio.Config{M: o.m, B: o.b})
			if err != nil {
				return err
			}
			elems := workload.Elems(kind, int(n), o.b, 0x1e7)
			for i := range elems {
				elems[i].Aux = emio.PackAux(int64(i%l), int64(i))
			}
			d := emio.BuildFile(ctx.Disk(), "D", elems)
			targets := make([]int64, l)
			for i := range targets {
				targets[i] = n / int64(l) / 2
			}
			ctx.Disk().ResetStats()
			if o.trace {
				ctx.SetTracer(emio.NewTracer())
			}
			res, err := intermix.Select(ctx, d, l, targets)
			if err != nil {
				return err
			}
			ctx.FreeElems(res)
			if o.trace {
				fmt.Fprintf(os.Stderr, "--- trace intermix L=%d ---\n%s", l, ctx.Tracer().Render())
			}
			ios := ctx.Disk().Stats().Total()
			jsonRows = append(jsonRows, row{Section: "INTERMIX", Label: fmt.Sprintf("L=%d", l),
				IOs: ios, Scans: float64(ios) / scan})
			md("| %d | %d | %.2f |\n", l, ios, float64(ios)/scan)
		}
		md("\n")
	}

	// --- RED-3 ---------------------------------------------------------------
	{
		var rows []row
		for _, bb := range []int64{n / 256, n / 16, n / 4} {
			if err := sweep(&rows, fmt.Sprintf("b=N/%d", n/bb),
				mc.PartitionLeft(n, bb), mc.PrecisePartitionFloor(n, n/bb),
				func(sys *empart.System, f *empart.File) error {
					return released(sys.PrecisePartition(f, bb))
				}); err != nil {
				return err
			}
		}
		printTable("RED-3: precise partitioning via the §3 reduction (approx + O(N/B) re-chunk)", "b", rows)
	}

	// --- MACHINE-SWEEP --------------------------------------------------------
	{
		md("## MACHINE-SWEEP: the lg_{M/B} base across machine shapes\n\n")
		md("Fixed N and problem; varying M/B changes the base of every lg in\n")
		md("Table 1. Sorting passes and left-grounded partitioning costs move\n")
		md("together, as the shared lg_{M/B} factor predicts.\n\n")
		md("| machine | M/B | sort I/Os | sort scans | L-PAR(b=N/64) I/Os | L-PAR scans |\n")
		md("|---|---|---|---|---|---|\n")
		for _, shape := range []empart.Config{
			{M: 1 << 10, B: 1 << 7}, // M/B = 8
			{M: 1 << 12, B: 1 << 7}, // M/B = 32
			{M: 1 << 12, B: 1 << 5}, // M/B = 128
			{M: 1 << 14, B: 1 << 5}, // M/B = 512
		} {
			runOn := func(fn func(sys *empart.System, f *empart.File) error) (int64, error) {
				sys, err := empart.New(shape)
				if err != nil {
					return 0, err
				}
				f := sys.Stage(workload.Elems(kind, int(n), shape.B, 0x5eeb))
				sys.ResetStats()
				if err := fn(sys, f); err != nil {
					return 0, err
				}
				return sys.Stats().Total(), nil
			}
			sortIO, err := runOn(func(sys *empart.System, f *empart.File) error {
				return released(sys.Sort(f))
			})
			if err != nil {
				return err
			}
			parIO, err := runOn(partition(empart.Params{K: 256, A: 0, B: n / 64}))
			if err != nil {
				return err
			}
			shapeScan := float64(n) / float64(shape.B)
			jsonRows = append(jsonRows,
				row{Section: "MACHINE-SWEEP", Label: fmt.Sprintf("sort %v", shape),
					IOs: sortIO, Scans: float64(sortIO) / shapeScan},
				row{Section: "MACHINE-SWEEP", Label: fmt.Sprintf("L-PAR %v", shape),
					IOs: parIO, Scans: float64(parIO) / shapeScan})
			md("| %v | %d | %d | %.2f | %d | %.2f |\n",
				shape, shape.M/shape.B, sortIO, float64(sortIO)/shapeScan, parIO, float64(parIO)/shapeScan)
		}
		md("\n")
	}

	// --- IM-PARITY (markdown only: comparison counts, not block I/Os) --------
	if !o.json {
		md("## IM-PARITY: internal-memory comparison counts (the §1.3 remark)\n\n")
		md("In internal memory, multi-selection and multi-partition both take\n")
		md("Θ(N lg K) comparisons — the separation exists only in the EM model.\n\n")
		md("| K | msel comparisons | mpart comparisons | ratio |\n|---|---|---|---|\n")
		base := workload.Elems(kind, int(n), o.b, 0x1337)
		for _, k := range []int64{4, 64, 1024} {
			ranks := make([]int64, 0, k-1)
			for i := int64(1); i < k; i++ {
				r := i * n / k
				if len(ranks) == 0 || r > ranks[len(ranks)-1] {
					ranks = append(ranks, r)
				}
			}
			sizes := make([]int64, k)
			prev := int64(0)
			for i := int64(0); i < k; i++ {
				cum := (i + 1) * n / k
				sizes[i] = cum - prev
				prev = cum
			}
			sel := append([]emio.Elem(nil), base...)
			_, cSel, err := imcomp.MultiSelect(sel, ranks)
			if err != nil {
				return err
			}
			par := append([]emio.Elem(nil), base...)
			cPar, err := imcomp.MultiPartition(par, sizes)
			if err != nil {
				return err
			}
			md("| %d | %d | %d | %.2f |\n", k, cSel, cPar, float64(cSel)/float64(cPar))
		}
		md("\n")
		return nil
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonRows)
}

// Command perfbench is the repository's benchmark. One invocation runs one
// workload as a closed loop with a single client, one job at a time, on
// file-backed disks in a scratch directory, checks every job's output, and
// prints one JSON result as the last line of stdout:
//
//	perfbench -emsort BIN -scratch DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with the
// program's tracing, metrics and logging off. With --trace 1 it holds the
// per-layer metrics of a separate traced run. run.sh builds the program and
// this harness from source and supplies -emsort and -scratch; README.md
// lists the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	empart "repro"
	"repro/internal/verify"
	"repro/internal/workload"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	emsort   string
	scratch  string
	traces   string

	// Worker mode: run the in-process half of a run on a staged input file.
	worker bool
	input  string
}

func main() {
	var o options
	var traceFlag int
	var seconds int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sort_text, query_zipf or sort_par_smallblock")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's input is generated from")
	flag.IntVar(&seconds, "seconds", 10, "summed job wall time to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.emsort, "emsort", "", "path of the emsort binary built from this checkout")
	flag.StringVar(&o.scratch, "scratch", "", "empty scratch directory for disks, inputs and outputs")
	flag.StringVar(&o.traces, "traces", "", "directory the traced run writes its spans and layer table to (default: .bench_build/traces)")
	flag.BoolVar(&o.worker, "worker", false, "internal: run in-process jobs on -input, reporting to the parent on stdout")
	flag.StringVar(&o.input, "input", "", "internal: staged input file of the worker")
	flag.Parse()
	o.seconds = float64(seconds)
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || seconds < 1 || o.scratch == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -scratch, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if o.worker {
		if err := runWorker(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if o.traces == "" {
		o.traces = filepath.Join(".bench_build", "traces")
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(res.detail); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res.result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before the result: the host, the workload's shape and
// everything a metric needs to be read correctly.
type detail struct {
	Workload       string    `json:"workload"`
	Seed           uint64    `json:"seed"`
	Trace          bool      `json:"trace"`
	N              int       `json:"n"`
	M              int       `json:"m"`
	B              int       `json:"b"`
	Workers        int       `json:"workers"`
	Pipeline       bool      `json:"pipeline"`
	Jobs           int       `json:"jobs"`
	JobWalls       []float64 `json:"job_walls_s"`
	TailPercentile int       `json:"job_s_tail_percentile,omitempty"`
	ErrorRate      float64   `json:"error_rate"`
	Failures       []string  `json:"failures,omitempty"`
	GateFailures   []string  `json:"gate_failures,omitempty"`
	Host           host      `json:"host"`
	Artefacts      string    `json:"trace_artefacts,omitempty"`
}

type runResult struct {
	detail detail
	result result
}

// runState accumulates one run's jobs.
type runState struct {
	o       options
	sp      spec
	in      []empart.Elem
	jobs    []jobRec // every job attempted, probes included
	rssKiB  int64    // largest peak RSS of an emsort process that ran a workload job
	setupS  []float64
	rec     recorder // parent-side spans (emsort jobs)
	wrep    *workerReport
	gates   []string
	emsorts []emsortRun

	// verified holds, per job kind, the digest of outputs that passed the
	// verify package's checks (for emsort: of output text that passed
	// verifyText).
	verified map[string]uint64
}

func run(o options) (runResult, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return runResult{}, err
	}
	st := &runState{o: o, sp: sp, in: workload.Elems(sp.kind, sp.n, sp.cfg.B, o.seed),
		verified: map[string]uint64{}}
	if sp.inProc {
		if err := st.runWorker(); err != nil {
			return runResult{}, err
		}
		if o.trace {
			// The emsort layers, probed once on this workload's input.
			if err := st.emsortJobs(1, 0, true, true); err != nil {
				return runResult{}, err
			}
		}
	} else {
		if err := st.sortText(); err != nil {
			return runResult{}, err
		}
	}
	return st.finish()
}

// sortText runs the sort_text job loop in this process, and in a traced run
// the worker's layer probes after it.
func (st *runState) sortText() error {
	o := st.o
	// Set-up is the first, cold emsort job; it repeats so its median is
	// steady, and its jobs are verified like all others.
	if err := st.emsortJobs(setupColdJobs, 0, false, false); err != nil {
		return err
	}
	for _, e := range st.emsorts {
		st.setupS = append(st.setupS, e.rec.WallS)
	}
	if !o.trace {
		return st.emsortJobs(minJobs, o.seconds, false, false)
	}
	if err := st.emsortJobs(minTracedJobs, o.seconds/2, false, false); err != nil {
		return err
	}
	if err := st.emsortJobs(minTracedJobs, o.seconds/2, true, false); err != nil {
		return err
	}
	return st.runWorker()
}

// setupColdJobs is how many set-up jobs sort_text runs before timing.
const setupColdJobs = 3

// emsortJobs runs emsort jobs until their summed wall time reaches budget
// seconds and at least min ran.
func (st *runState) emsortJobs(min int, budget float64, traced, probe bool) error {
	text := makeText(st.in)
	// Output identical to output that passed verifyText passes too.
	table := crc64.MakeTable(crc64.ECMA)
	check := func(out []byte) error {
		d := crc64.Checksum(out, table)
		if v, ok := st.verified["emsort"]; ok && v == d {
			return nil
		}
		if err := verifyText(out, text); err != nil {
			return err
		}
		st.verified["emsort"] = d
		return nil
	}
	dir := filepath.Join(st.o.scratch, "emsort")
	var spent float64
	for n := 0; n < min || spent < budget; n++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		r := runEmsort(st.o.emsort, dir, st.sp.cfg, text, traced, check)
		// Parent-side jobs count down from -1, apart from the worker's.
		r.rec.Job = -(len(st.jobs) + 1)
		r.rec.Probe = probe
		spent += r.rec.WallS
		if !probe {
			st.rssKiB = max(st.rssKiB, r.rssKiB)
		}
		if traced {
			job := r.rec.Job
			root := st.rec.add(job, 0, "job", r.start, r.end)
			st.rec.add(job, root, "emsort.ingest", r.spawn, r.ingest)
			st.rec.add(job, root, "emsort.core", r.ingest, r.first)
			st.rec.add(job, root, "emsort.egress", r.first, r.end)
			if err := st.rec.graftOTLP(job, r.otlp); err != nil {
				return err
			}
		}
		st.jobs = append(st.jobs, r.rec)
		st.emsorts = append(st.emsorts, r)
	}
	return nil
}

// runWorker starts the worker on the staged input, verifies each job it
// reports, and collects its report and peak RSS.
func (st *runState) runWorker() error {
	input := filepath.Join(st.o.scratch, "input.bin")
	if err := writeElems(input, st.in); err != nil {
		return err
	}
	trace := "0"
	if st.o.trace {
		trace = "1"
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-worker", "-workload", st.sp.name, "-input", input,
		"-scratch", st.o.scratch, "-seed", fmt.Sprint(st.o.seed), "-seconds", fmt.Sprint(int(st.o.seconds)), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	verr := st.serveWorker(json.NewDecoder(bufio.NewReaderSize(stdout, 1<<20)), stdin)
	stdin.Close()
	if verr != nil {
		// Drain so the worker is never blocked writing when we wait.
		io.Copy(io.Discard, stdout)
	}
	werr := cmd.Wait()
	if err := errors.Join(verr, werr); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	return os.Remove(input)
}

// serveWorker reads the worker's messages, verifying and answering every
// job, until its report arrives. Outputs whose digest matches outputs that
// already passed the verify package's checks are byte-identical to them and
// pass; for any other outputs the worker is asked to dump them, and they are
// checked in full.
func (st *runState) serveWorker(dec *json.Decoder, ack io.Writer) error {
	next := func() (workerMsg, error) {
		var m workerMsg
		if err := dec.Decode(&m); err != nil {
			return m, fmt.Errorf("reading worker output: %w", err)
		}
		return m, nil
	}
	for {
		m, err := next()
		if err != nil {
			return err
		}
		if m.Report != nil {
			st.wrep = m.Report
			if st.sp.inProc {
				for i := range m.Report.NewS {
					st.setupS = append(st.setupS, m.Report.NewS[i]+m.Report.StageS[i])
				}
			}
			return nil
		}
		if m.Job == nil {
			return errors.New("unexpected worker message")
		}
		r := *m.Job
		if d, ok := st.verified[r.Kind]; r.Err == "" && (!ok || d != r.Digest) {
			if _, err := io.WriteString(ack, "dump\n"); err != nil {
				return err
			}
			if m, err := next(); err != nil || !m.Dumped {
				return fmt.Errorf("job %d: outputs not dumped (%v)", r.Job, err)
			}
			if err := st.verifyDump(r); err != nil {
				r.Err = err.Error()
			} else {
				st.verified[r.Kind] = r.Digest
			}
		}
		st.jobs = append(st.jobs, r)
		if _, err := io.WriteString(ack, "ok\n"); err != nil {
			return err
		}
	}
}

// verifyDump reads a job's dumped outputs, checks they are what the worker
// fingerprinted, and runs the verify package's checks on them.
func (st *runState) verifyDump(r jobRec) error {
	var outs [][]empart.Elem
	for _, name := range outFiles(r.Kind) {
		es, err := readElems(filepath.Join(st.o.scratch, name))
		if err != nil {
			return err
		}
		outs = append(outs, es)
	}
	if digest(outs, r.Sizes) != r.Digest {
		return errors.New("dumped outputs do not match the job's digest")
	}
	return st.checkOutputs(r.Kind, outs, r.Sizes)
}

// checkOutputs runs the verify package's checks on a job's outputs, in the
// order outFiles names them.
func (st *runState) checkOutputs(kind string, outs [][]empart.Elem, sizes []int64) error {
	n := int64(len(st.in))
	switch kind {
	case "query":
		p, q := splittersParams(n), partitionParams(n)
		return parallel(
			func() error {
				if _, err := verify.Splitters(st.in, outs[0], p.K, p.A, p.B); err != nil {
					return fmt.Errorf("splitters: %w", err)
				}
				return nil
			},
			func() error {
				if err := verify.Partition(st.in, outs[1], sizes, q.K, q.A, q.B); err != nil {
					return fmt.Errorf("partition: %w", err)
				}
				return nil
			},
			func() error {
				if err := verify.MultiSelect(st.in, selectRanks(n), outs[2]); err != nil {
					return fmt.Errorf("multiselect: %w", err)
				}
				return nil
			})
	case "par_sort":
		return parallel(
			func() error { return verify.Sorted(outs[0]) },
			func() error { return verify.SameMultiset(outs[0], st.in) })
	default:
		return fmt.Errorf("unknown job kind %q", kind)
	}
}

// parallel runs the checks concurrently and joins their errors. The worker
// is blocked waiting for the verdict, so they overlap no timed job.
func parallel(checks ...func() error) error {
	errs := make([]error, len(checks))
	var wg sync.WaitGroup
	for i, c := range checks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// workloadJobs returns the timed jobs of the workload itself (no set-up
// jobs, no probes), traced or untraced.
func (st *runState) workloadJobs(traced bool) []jobRec {
	var out []jobRec
	skip := 0
	if !st.sp.inProc {
		skip = setupColdJobs
	}
	for i, r := range st.jobs {
		if i < skip || r.Probe || r.Warmup || r.Traced != traced {
			continue
		}
		out = append(out, r)
	}
	return out
}

func walls(js []jobRec) []float64 {
	out := make([]float64, len(js))
	for i, r := range js {
		out[i] = r.WallS
	}
	return out
}

// finish checks the exact-count gates and assembles the metrics.
func (st *runState) finish() (runResult, error) {
	sp := st.sp
	d := detail{Workload: sp.name, Seed: st.o.seed, Trace: st.o.trace, N: sp.n, M: sp.cfg.M, B: sp.cfg.B,
		Workers: sp.cfg.Workers, Pipeline: sp.cfg.Pipeline.Enabled, Host: probeHost(st.o.scratch)}
	res := result{Attempted: len(st.jobs), Metrics: map[string]metric{}}
	for _, r := range st.jobs {
		if r.Err != "" {
			res.Failed++
			d.Failures = append(d.Failures, fmt.Sprintf("job %d (%s): %s", r.Job, r.Kind, r.Err))
		}
	}
	d.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))

	// Exact-count gate: every job of one kind on one input costs the same
	// logical I/Os and reaches the same disk footprint.
	byKind := map[string][]jobRec{}
	for _, r := range st.jobs {
		if r.Err == "" {
			byKind[r.Kind] = append(byKind[r.Kind], r)
		}
	}
	for kind, js := range byKind {
		for _, r := range js[1:] {
			if r.IOs != js[0].IOs || r.Amp != js[0].Amp {
				st.gates = append(st.gates, fmt.Sprintf("%s job %d: %d I/Os, scratch_amp %v; job %d: %d I/Os, scratch_amp %v",
					kind, r.Job, r.IOs, r.Amp, js[0].Job, js[0].IOs, js[0].Amp))
				break
			}
		}
	}
	if st.wrep != nil && st.wrep.Replica != 0 && len(byKind["emsort"]) > 0 && st.wrep.Replica != byKind["emsort"][0].IOs {
		st.gates = append(st.gates, fmt.Sprintf("extsort replica cost %d I/Os, emsort's cost line %d",
			st.wrep.Replica, byKind["emsort"][0].IOs))
	}

	own := st.workloadJobs(st.o.trace)
	if len(own) == 0 {
		return runResult{}, errors.New("no timed jobs ran")
	}
	d.Jobs = len(own)
	d.JobWalls = walls(own)
	if st.o.trace {
		if err := st.layerMetrics(&d, res.Metrics); err != nil {
			return runResult{}, err
		}
	} else {
		st.endToEnd(&d, own, res.Metrics)
	}
	d.GateFailures = st.gates
	res.Correct = res.Failed == 0 && len(st.gates) == 0
	return runResult{d, res}, nil
}

// endToEnd computes the untraced run's metrics.
func (st *runState) endToEnd(d *detail, own []jobRec, m map[string]metric) {
	w := walls(own)
	cpu := make([]float64, len(own))
	for i, r := range own {
		cpu[i] = r.CPUS
	}
	pct, tailS := tail(w)
	d.TailPercentile = pct
	m["setup_s"] = metric{median(st.setupS), "s"}
	m["job_s_p50"] = metric{median(w), "s"}
	m["job_s_tail"] = metric{tailS, "s"}
	m["melem_per_s"] = metric{float64(st.sp.n) * float64(len(own)) / sum(w) / 1e6, "Melem/s"}
	m["cpu_s_p50"] = metric{median(cpu), "s"}
	rss := st.rssKiB // emsort processes
	for _, r := range own {
		rss = max(rss, r.RSSKiB) // in-process jobs, measured by the worker
	}
	m["peak_rss_mib"] = metric{float64(rss) / 1024, "MiB"}
	m["logical_ios"] = metric{float64(own[0].IOs), "count"}
	m["scratch_amp"] = metric{own[0].Amp, "ratio"}
	m["job_success_ratio"] = metric{1 - d.ErrorRate, "ratio"}
}

// layerMetrics computes the traced run's metrics.
func (st *runState) layerMetrics(d *detail, m map[string]metric) error {
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	// Worker span ids continue after the parent's.
	spans := slices.Clone(st.rec.spans)
	off := len(spans)
	for _, s := range st.wrep.Spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		spans = append(spans, s)
	}
	ownTraced := st.workloadJobs(true)
	ownUntraced := st.workloadJobs(false)
	table := buildLayerTable(filterSpans(spans, jobIDs(ownTraced)))

	// Accounting of the workload's own traced jobs.
	set("job_s_p50_traced", median(walls(ownTraced)), "s")
	set("trace_overhead", median(walls(ownTraced))/median(walls(ownUntraced)), "ratio")
	set("unattributed_s", table.Layers["unattributed"], "s")
	set("unattributed_share", table.Layers["unattributed"]/table.JobS, "ratio")

	// emsort pipe boundaries: the workload's own traced jobs, or the probe.
	var ingest, core, egress []float64
	for _, e := range st.emsorts {
		if !e.rec.Traced {
			continue
		}
		ingest = append(ingest, e.ingest.Sub(e.spawn).Seconds())
		core = append(core, e.first.Sub(e.ingest).Seconds())
		egress = append(egress, e.end.Sub(e.first).Seconds())
	}
	set("emsort.ingest_s", median(ingest), "s")
	set("emsort.core_s", median(core), "s")
	set("emsort.egress_s", median(egress), "s")

	// Facade set-up and the worker's probes.
	L := st.wrep.Layers
	if st.sp.inProc {
		L["empart.new_s"] = median(st.wrep.NewS)
		L["empart.stage_s"] = median(st.wrep.StageS)
	}
	for _, k := range []string{"empart.new_s", "empart.stage_s", "empart.read_s", "extsort.form_runs_s", "extsort.merge_s",
		"inmem.sort_run_s", "approxsplit.splitters_s"} {
		set(k, L[k], "s")
	}
	for _, k := range []string{"extsort.runs", "extsort.merge_passes", "extsort.form_runs_ios", "extsort.merge_ios"} {
		set(k, L[k], "count")
	}
	set("approxsplit.classify_ns_per_elem", L["approxsplit.classify_ns_per_elem"], "ns")

	// Query rounds: the workload's own, or the probe on this input.
	query := tracedOfKind(st.jobs, "query")
	qt := buildLayerTable(filterSpans(spans, jobIDs(query)))
	for _, c := range []string{"core.splitters", "core.partition", "msel.select"} {
		var s []float64
		var ios int64
		for _, r := range query {
			s = append(s, r.Calls[c].S)
			ios = r.Calls[c].IOs
		}
		set(c+"_s", median(s), "s")
		set(c+"_ios", float64(ios), "count")
	}
	for _, l := range []string{"core", "approxsplit", "msel", "mpart", "intermix"} {
		set(l+".self_s", qt.Layers[l], "s")
	}

	// Parallel sorts: the workload's own, or the probe on this input.
	par := tracedOfKind(st.jobs, "par_sort")
	pt := buildLayerTable(filterSpans(spans, jobIDs(par)))
	var sortS, balance, cpw []float64
	for _, r := range par {
		sortS = append(sortS, r.Calls["empar.sort"].S)
		balance = append(balance, shardBalance(r.Shards))
		cpw = append(cpw, r.CPUS/r.WallS)
	}
	set("empar.sort_s", median(sortS), "s")
	set("empar.shard_balance", median(balance), "ratio")
	set("empar.cpu_per_wall", median(cpw), "ratio")
	for _, ph := range []string{"sample", "runs", "range-merge", "assemble"} {
		set("empar."+strings.ReplaceAll(ph, "-", "_")+"_self_s", pt.Names["empar/"+ph], "s")
	}

	// emio: per-job means over the workload's own traced jobs; sort_text's
	// jobs run out of process, so its replica stands in.
	var ios []ioSample
	for _, r := range ownTraced {
		if r.IO != nil {
			ios = append(ios, *r.IO)
		}
	}
	if len(ios) == 0 && st.wrep.ReplicaIO != nil {
		ios = append(ios, *st.wrep.ReplicaIO)
	}
	emioMetrics(ios, set)

	table.render(os.Stderr)
	path := filepath.Join(st.o.traces, fmt.Sprintf("%s-seed%d.json", st.sp.name, st.o.seed))
	if err := writeArtefacts(path, spans, table); err != nil {
		return fmt.Errorf("write trace artefacts: %w", err)
	}
	d.Artefacts = path
	return nil
}

// emioMetrics sets the emio layer's metrics: per-job means of counts and
// busy times, medians of the sampled queue depth and memory peak.
func emioMetrics(ios []ioSample, set func(string, float64, string)) {
	n := float64(max(len(ios), 1))
	var t ioSample
	var depth, mem []float64
	for _, s := range ios {
		t.LogReads += s.LogReads
		t.LogWrites += s.LogWrites
		t.PhysReads += s.PhysReads
		t.PhysWrites += s.PhysWrites
		t.PhysReadNS += s.PhysReadNS
		t.PhysWriteNS += s.PhysWriteNS
		t.LogReadNS += s.LogReadNS
		t.PrefetchHits += s.PrefetchHits
		t.PrefetchMisses += s.PrefetchMisses
		t.Retries += s.Retries
		depth = append(depth, s.QueueDepthP50)
		mem = append(mem, s.PeakMemOverM)
	}
	set("emio.logical_reads", float64(t.LogReads)/n, "count")
	set("emio.logical_writes", float64(t.LogWrites)/n, "count")
	set("emio.phys_reads", float64(t.PhysReads)/n, "count")
	set("emio.phys_writes", float64(t.PhysWrites)/n, "count")
	set("emio.coalesce_ratio", float64(t.LogReads+t.LogWrites)/float64(t.PhysReads+t.PhysWrites), "ratio")
	set("emio.phys_read_busy_s", float64(t.PhysReadNS)/1e9/n, "s")
	set("emio.phys_write_busy_s", float64(t.PhysWriteNS)/1e9/n, "s")
	set("emio.read_wait_s", float64(t.LogReadNS)/1e9/n, "s")
	set("emio.prefetch_hit_ratio", float64(t.PrefetchHits)/float64(t.PrefetchHits+t.PrefetchMisses), "ratio")
	set("emio.write_queue_depth_p50", median(depth), "blocks")
	set("emio.retries", float64(t.Retries)/n, "count")
	set("emio.peak_mem_over_m", median(mem), "ratio")
}

// tracedOfKind returns the traced jobs of one kind, probes included.
func tracedOfKind(js []jobRec, kind string) []jobRec {
	var out []jobRec
	for _, r := range js {
		if r.Traced && r.Kind == kind && r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

func jobIDs(js []jobRec) map[int]bool {
	ids := map[int]bool{}
	for _, r := range js {
		ids[r.Job] = true
	}
	return ids
}

func filterSpans(spans []span, jobs map[int]bool) []span {
	var out []span
	for _, s := range spans {
		if jobs[s.Job] {
			out = append(out, s)
		}
	}
	return out
}

// shardBalance is max/mean of the shards' output bytes (1 is perfect).
func shardBalance(bytes []int64) float64 {
	if len(bytes) == 0 {
		return 0
	}
	var total, most int64
	for _, b := range bytes {
		total += b
		most = max(most, b)
	}
	return float64(most) * float64(len(bytes)) / float64(total)
}

package main

// The worker is the process that runs in-process jobs. The parent generates
// the input, starts the worker on it and verifies every job's outputs, so
// neither the generator nor the verifier counts towards the memory of the
// process that ran the jobs.
//
// Protocol: the worker writes one JSON message per line to stdout, a job
// record after every job and a report at the end; after each job record it
// blocks until the parent answers on its stdin (see send), so verification
// never overlaps a timed job.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	empart "repro"
	"repro/internal/approxsplit"
	"repro/internal/emio/metrics"
	"repro/internal/extsort"
	"repro/internal/inmem"
	"repro/internal/verify"
)

// jobRec is one job's measurements.
type jobRec struct {
	Job    int                `json:"job"`
	Kind   string             `json:"kind"` // "query", "par_sort" or "emsort"
	Traced bool               `json:"traced"`
	Probe  bool               `json:"probe,omitempty"`  // a layer probe, not a workload job
	Warmup bool               `json:"warmup,omitempty"` // untimed first job
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"`
	IOs    int64              `json:"ios"`
	Amp    float64            `json:"scratch_amp"`
	Err    string             `json:"err,omitempty"`
	Calls  map[string]callRec `json:"calls,omitempty"`
	Sizes  []int64            `json:"sizes,omitempty"` // partition sizes, for verification
	Shards []int64            `json:"shard_bytes,omitempty"`
	IO     *ioSample          `json:"io,omitempty"` // traced jobs only
	RSSKiB int64              `json:"peak_rss_kib"`
	Digest uint64             `json:"digest,omitempty"` // of the outputs, see digest
}

// callRec is the wall time and logical I/O of one facade call in a job.
type callRec struct {
	S   float64 `json:"s"`
	IOs int64   `json:"ios"`
}

// ioSample is the emio layer's activity during one traced job.
type ioSample struct {
	LogReads, LogWrites   int64
	PhysReads, PhysWrites int64
	PhysReadNS            int64
	PhysWriteNS           int64
	LogReadNS             int64
	PrefetchHits          int64
	PrefetchMisses        int64
	Retries               int64
	QueueDepthP50         float64
	PeakMemOverM          float64
}

// workerReport closes a worker's output.
type workerReport struct {
	NewS      []float64          `json:"new_s"`
	StageS    []float64          `json:"stage_s"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Replica   int64              `json:"replica_ios,omitempty"`
	ReplicaIO *ioSample          `json:"replica_io,omitempty"`
}

type workerMsg struct {
	Job    *jobRec       `json:"job,omitempty"`
	Report *workerReport `json:"report,omitempty"`
	Dumped bool          `json:"dumped,omitempty"` // outputs written for verification
}

// jobSeed is the second word of every job's random-source seed; the first is
// the workload seed.
const jobSeed = 0x6a6f62

// setupRepeats is how often setup (NewFileBacked + Stage) runs; setup_s is
// the median.
const setupRepeats = 9

type worker struct {
	sp      spec
	in      []empart.Elem
	scratch string
	enc     *json.Encoder
	ack     *bufio.Reader
	seed    uint64
	rec     recorder
	nextJob int
	rep     workerReport
}

// runWorker is the worker process's main.
func runWorker(o options) error {
	sp, err := specByName(o.workload)
	if err != nil {
		return err
	}
	in, err := readElems(o.input)
	if err != nil {
		return err
	}
	w := &worker{sp: sp, in: in, scratch: o.scratch, seed: o.seed,
		enc: json.NewEncoder(os.Stdout), ack: bufio.NewReader(os.Stdin)}
	if sp.inProc {
		if err := w.runJobs(o); err != nil {
			return err
		}
	}
	if o.trace {
		if err := w.probes(); err != nil {
			return err
		}
		w.rep.Spans = w.rec.spans
	}
	return w.enc.Encode(workerMsg{Report: &w.rep})
}

// runJobs sets the workload's system up setupRepeats times, keeps the last
// one and runs the closed job loop on it: untraced for the whole budget, or
// in a traced run half untraced and half traced.
func (w *worker) runJobs(o options) error {
	var sys *empart.System
	var f *empart.File
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			if err := sys.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, err := empart.NewFileBacked(w.sp.cfg, filepath.Join(w.scratch, "disk.bin"))
		if err != nil {
			return fmt.Errorf("set up: %w", err)
		}
		t1 := time.Now()
		f = s.Stage(w.in)
		t2 := time.Now()
		sys = s
		w.rep.NewS = append(w.rep.NewS, t1.Sub(t0).Seconds())
		w.rep.StageS = append(w.rep.StageS, t2.Sub(t1).Seconds())
	}
	defer sys.Close()
	sys.ResetStats()

	kind := "query"
	if w.sp.name == "sort_par_smallblock" {
		kind = "par_sort"
	}
	// One untimed job first, so heap growth and first-touch of the
	// backing file's blocks are not charged to the timed jobs.
	r, outs, err := w.job(sys, f, kind, false, nil, false)
	if err != nil {
		return err
	}
	r.Warmup = true
	if err := w.send(r, outs); err != nil {
		return err
	}
	if !o.trace {
		return w.loop(sys, f, kind, o.seconds, minJobs, false)
	}
	if err := w.loop(sys, f, kind, o.seconds/2, minTracedJobs, false); err != nil {
		return err
	}
	return w.loop(sys, f, kind, o.seconds/2, minTracedJobs, true)
}

// Minimum job counts: an untraced run needs more than tailBeyond jobs for
// job_s_tail to exist.
const (
	minJobs       = tailBeyond + 1
	minTracedJobs = 5
)

// loop runs jobs until their summed wall time reaches budget seconds and at
// least min jobs ran. Verification and teardown between jobs are not part of
// the budget.
func (w *worker) loop(sys *empart.System, f *empart.File, kind string, budget float64, min int, traced bool) error {
	var reg *metrics.Registry
	if traced {
		sys.EnableTracing()
		reg = sys.EnableMetrics()
		defer sys.SetTracer(nil)
		defer sys.SetMetrics(nil)
	}
	var spent float64
	for n := 0; n < min || spent < budget; n++ {
		r, outs, err := w.job(sys, f, kind, traced, reg, false)
		if err != nil {
			return err
		}
		spent += r.WallS
		if err := w.send(r, outs); err != nil {
			return err
		}
	}
	return nil
}

// send reports a job to the parent and waits for its verdict. When the
// parent has not yet verified outputs with this digest it answers "dump":
// the worker writes the outputs to the scratch directory, reports that, and
// waits again.
func (w *worker) send(r jobRec, outs [][]empart.Elem) error {
	if err := w.enc.Encode(workerMsg{Job: &r}); err != nil {
		return err
	}
	for {
		line, err := w.ack.ReadString('\n')
		if err != nil {
			return fmt.Errorf("waiting for verification of job %d: %w", r.Job, err)
		}
		if line != "dump\n" {
			return nil
		}
		names := outFiles(r.Kind)
		if len(names) != len(outs) {
			return fmt.Errorf("job %d: %d outputs, want %d", r.Job, len(outs), len(names))
		}
		for i, name := range names {
			if err := writeElems(filepath.Join(w.scratch, name), outs[i]); err != nil {
				return err
			}
		}
		if err := w.enc.Encode(workerMsg{Dumped: true}); err != nil {
			return err
		}
	}
}

// resetPeakRSS lowers the kernel's peak-RSS mark of this process to its
// current RSS (Linux: "5" written to /proc/self/clear_refs).
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker: cannot reset peak RSS:", err)
	}
}

// peakRSSKiB returns the peak RSS since the last resetPeakRSS (VmHWM), or
// the process lifetime peak from rusage where /proc is unavailable.
func peakRSSKiB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib int64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kib); err == nil {
					return kib
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// cpuSeconds returns this process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// job runs one job of the given kind on sys and returns its outputs. An error return is a failure of the benchmark itself; a failed
// job is reported in the record.
func (w *worker) job(sys *empart.System, f *empart.File, kind string, traced bool, reg *metrics.Registry, probe bool) (jobRec, [][]empart.Elem, error) {
	w.nextJob++
	r := jobRec{Job: w.nextJob, Kind: kind, Traced: traced, Probe: probe, Calls: map[string]callRec{}}
	n := int64(len(w.in))
	cfg := sys.Config()

	// Every job starts the algorithms' random source from the same state, so
	// repeated jobs on one input are the same computation.
	sys.Ctx().SetSeed(w.seed, jobSeed)
	// Return the previous hand-over's memory to the OS and restart the
	// peak-RSS meter, so the job's peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	sys.ResetPeakDisk()
	var before ioSnap
	var sampler *depthSampler
	if reg != nil {
		before = takeIOSnap(sys, reg)
		sampler = startDepthSampler(reg)
	}
	var outputs []*empart.File
	var part *empart.PartitionResult
	root := 0
	call := func(name string, fn func() error) error {
		st := sys.Stats()
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		r.Calls[name] = callRec{S: t1.Sub(t0).Seconds(), IOs: sys.Stats().Sub(st).Total()}
		if traced {
			w.rec.add(r.Job, root, name, t0, t1)
		}
		return err
	}
	st0 := sys.Stats()
	cpu0 := cpuSeconds()
	start := time.Now()
	if traced {
		root = w.rec.add(r.Job, 0, "job", start, start)
	}
	var err error
	switch kind {
	case "query":
		err = errors.Join(
			call("core.splitters", func() error {
				out, err := sys.Splitters(f, splittersParams(n))
				outputs = append(outputs, out)
				return err
			}),
			call("core.partition", func() error {
				var err error
				part, err = sys.Partition(f, partitionParams(n))
				if part != nil {
					outputs = append(outputs, part.Data)
				}
				return err
			}),
			call("msel.select", func() error {
				out, err := sys.MultiSelect(f, selectRanks(n))
				outputs = append(outputs, out)
				return err
			}))
	case "par_sort":
		err = call("empar.sort", func() error {
			out, err := sys.Sort(f)
			outputs = append(outputs, out)
			return err
		})
	}
	end := time.Now()
	r.WallS = end.Sub(start).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	r.IOs = sys.Stats().Sub(st0).Total()
	r.Amp = float64(sys.PeakDiskBlocks()*int64(cfg.B)) / float64(n)
	r.RSSKiB = peakRSSKiB()
	if err != nil {
		r.Err = err.Error()
	}
	if traced {
		w.rec.spans[root-1].End = end.UnixNano()
		doc, terr := sys.TraceOTLP("perfbench")
		if terr != nil {
			return r, nil, terr
		}
		if terr := w.rec.graftOTLP(r.Job, doc); terr != nil {
			return r, nil, terr
		}
		sys.Tracer().Reset()
	}
	if reg != nil {
		s := takeIOSnap(sys, reg).sub(before)
		s.QueueDepthP50 = sampler.stop()
		s.PeakMemOverM = float64(sys.PeakMemory()) / float64(cfg.M)
		r.IO = &s
	}
	if kind == "par_sort" {
		r.Shards = sys.ShardReport().ShardBytes
	}

	// Outside the timed region: copy the outputs out, release them and
	// check that the job left no scratch file behind.
	var snaps [][]empart.Elem
	if r.Err == "" {
		for _, o := range outputs {
			snaps = append(snaps, sys.Read(o))
		}
		if part != nil {
			r.Sizes = part.Sizes
		}
		r.Digest = digest(snaps, r.Sizes)
	}
	for _, o := range outputs {
		if o != nil {
			o.Release()
		}
	}
	if live := sys.LiveScratchFiles(); len(live) > 0 && r.Err == "" {
		r.Err = fmt.Sprintf("leaked scratch files: %s", strings.Join(live, ", "))
	}
	return r, snaps, nil
}

// ioSnap is a cumulative reading of the emio layer's counters.
type ioSnap struct {
	log, phys empart.Stats
	retries   int64
	counters  map[string]int64
	hsum      map[string]int64
}

func takeIOSnap(sys *empart.System, reg *metrics.Registry) ioSnap {
	snap := reg.Snapshot()
	s := ioSnap{log: sys.Stats(), phys: sys.PhysStats(), retries: sys.RetryStats().Retries,
		counters: snap.Counters, hsum: map[string]int64{}}
	for name, h := range snap.Histograms {
		s.hsum[name] = h.Sum
	}
	return s
}

func (s ioSnap) sub(t ioSnap) ioSample {
	return ioSample{
		LogReads: s.log.Reads - t.log.Reads, LogWrites: s.log.Writes - t.log.Writes,
		PhysReads: s.phys.Reads - t.phys.Reads, PhysWrites: s.phys.Writes - t.phys.Writes,
		PhysReadNS:     s.hsum["empart_phys_read_ns"] - t.hsum["empart_phys_read_ns"],
		PhysWriteNS:    s.hsum["empart_phys_write_ns"] - t.hsum["empart_phys_write_ns"],
		LogReadNS:      s.hsum["empart_logical_read_ns"] - t.hsum["empart_logical_read_ns"],
		PrefetchHits:   s.counters["empart_prefetch_hits_total"] - t.counters["empart_prefetch_hits_total"],
		PrefetchMisses: s.counters["empart_prefetch_misses_total"] - t.counters["empart_prefetch_misses_total"],
		Retries:        s.retries - t.retries,
	}
}

// depthSampler reads the write-behind queue depth gauge every millisecond
// while a traced job runs.
type depthSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startDepthSampler(reg *metrics.Registry) *depthSampler {
	g := reg.Gauge("empart_write_queue_depth", "")
	d := &depthSampler{stopc: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stopc:
				return
			case <-t.C:
				d.samples = append(d.samples, float64(g.Value()))
			}
		}
	}()
	return d
}

// stop ends sampling and returns the median depth.
func (d *depthSampler) stop() float64 {
	close(d.stopc)
	d.wg.Wait()
	return median(d.samples)
}

// probes measures, once each on this workload's input, the layers the
// workload's own jobs do not isolate: the extsort replica of an emsort job,
// an in-memory run sort, approximate splitters with bucket routing, and one
// traced job of each in-process kind the workload does not run itself.
func (w *worker) probes() error {
	if w.rep.Layers == nil {
		w.rep.Layers = map[string]float64{}
	}
	if err := w.replica(); err != nil {
		return fmt.Errorf("extsort replica: %w", err)
	}
	w.inmemProbe()
	if err := w.approxsplitProbe(); err != nil {
		return fmt.Errorf("approxsplit probe: %w", err)
	}
	if w.sp.name != "query_zipf" {
		cfg := empart.Config{M: w.sp.cfg.M, B: w.sp.cfg.B, Pipeline: empart.Pipeline{Enabled: true}}
		if err := w.probeJob(cfg, "query"); err != nil {
			return fmt.Errorf("query probe: %w", err)
		}
	}
	if w.sp.name != "sort_par_smallblock" {
		// The parallel engine is probed at its own workload's small-block
		// shape, where its positioned I/O path dominates.
		par, err := specByName("sort_par_smallblock")
		if err != nil {
			return err
		}
		if err := w.probeJob(par.cfg, "par_sort"); err != nil {
			return fmt.Errorf("parallel sort probe: %w", err)
		}
	}
	return nil
}

// probeJob runs one traced job of the given kind on a fresh system.
func (w *worker) probeJob(cfg empart.Config, kind string) error {
	sys, err := empart.NewFileBacked(cfg, filepath.Join(w.scratch, "probe.bin"))
	if err != nil {
		return err
	}
	defer sys.Close()
	f := sys.Stage(w.in)
	sys.ResetStats()
	sys.EnableTracing()
	reg := sys.EnableMetrics()
	r, outs, err := w.job(sys, f, kind, true, reg, true)
	if err != nil {
		return err
	}
	return w.send(r, outs)
}

// replica repeats the core of an emsort job in process, with the same
// configuration (sequential engine) and input:
// New → Stage → FormRuns → MergeAll → Read → verify.Sorted.
func (w *worker) replica() error {
	cfg := w.sp.cfg
	cfg.Workers = 0
	const repeats = 3
	var newS, stageS, formS, mergeS, readS []float64
	var formIOs, mergeIOs, runs, passes int64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := empart.NewFileBacked(cfg, filepath.Join(w.scratch, "replica.bin"))
		if err != nil {
			return err
		}
		t1 := time.Now()
		f := sys.Stage(w.in)
		t2 := time.Now()
		sys.ResetStats()
		tr := sys.EnableTracing()
		reg := sys.EnableMetrics()
		before := takeIOSnap(sys, reg)
		sampler := startDepthSampler(reg)
		ctx := sys.Ctx()
		rs, err := extsort.FormRuns(ctx, f)
		t3 := time.Now()
		st := sys.Stats()
		var out *empart.File
		if err == nil {
			out, err = extsort.MergeAll(ctx, rs)
		}
		t4 := time.Now()
		io := takeIOSnap(sys, reg).sub(before)
		io.QueueDepthP50 = sampler.stop()
		io.PeakMemOverM = float64(sys.PeakMemory()) / float64(cfg.M)
		if err != nil {
			sys.Close()
			return err
		}
		sorted := sys.Read(out)
		t5 := time.Now()
		if err := verify.Sorted(sorted); err != nil {
			sys.Close()
			return err
		}
		if len(sorted) != len(w.in) {
			sys.Close()
			return fmt.Errorf("replica output has %d elements, want %d", len(sorted), len(w.in))
		}
		newS = append(newS, t1.Sub(t0).Seconds())
		stageS = append(stageS, t2.Sub(t1).Seconds())
		formS = append(formS, t3.Sub(t2).Seconds())
		mergeS = append(mergeS, t4.Sub(t3).Seconds())
		readS = append(readS, t5.Sub(t4).Seconds())
		formIOs, mergeIOs = st.Total(), sys.Stats().Sub(st).Total()
		runs = int64(len(rs))
		passes = int64(len(tr.Find("extsort/merge-pass")))
		w.rep.Replica = sys.Stats().Total()
		w.rep.ReplicaIO = &io
		out.Release()
		if err := sys.Close(); err != nil {
			return err
		}
	}
	L := w.rep.Layers
	L["extsort.form_runs_s"] = median(formS)
	L["extsort.merge_s"] = median(mergeS)
	L["extsort.runs"] = float64(runs)
	L["extsort.merge_passes"] = float64(passes)
	L["extsort.form_runs_ios"] = float64(formIOs)
	L["extsort.merge_ios"] = float64(mergeIOs)
	L["empart.read_s"] = median(readS)
	if !w.sp.inProc {
		L["empart.new_s"] = median(newS)
		L["empart.stage_s"] = median(stageS)
	}
	return nil
}

// inmemProbe times inmem.Sort on one run-formation chunk of the input,
// (M/B-1)·B elements.
func (w *worker) inmemProbe() {
	size := min((w.sp.cfg.M/w.sp.cfg.B-1)*w.sp.cfg.B, len(w.in))
	var ts []float64
	for i := 0; i < 5; i++ {
		chunk := slices.Clone(w.in[:size])
		runtime.GC()
		t0 := time.Now()
		inmem.Sort(chunk)
		ts = append(ts, time.Since(t0).Seconds())
	}
	w.rep.Layers["inmem.sort_run_s"] = median(ts)
}

// approxsplitProbe times Splitters with g = MaxBuckets(cfg) on the input and
// BucketOf routing of every input element against the splitters.
func (w *worker) approxsplitProbe() error {
	cfg := w.sp.cfg
	cfg.Workers = 0
	sys, err := empart.NewFileBacked(cfg, filepath.Join(w.scratch, "approxsplit.bin"))
	if err != nil {
		return err
	}
	defer sys.Close()
	f := sys.Stage(w.in)
	g := approxsplit.MaxBuckets(cfg)
	var splitS, classifyNS []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		res, err := approxsplit.Splitters(sys.Ctx(), f, g)
		if err != nil {
			return err
		}
		t1 := time.Now()
		var hist [64]int
		for _, e := range w.in {
			hist[approxsplit.BucketOf(res.Splitters, e)&63]++
		}
		t2 := time.Now()
		if len(res.Splitters) != g-1 {
			return fmt.Errorf("%d splitters for g=%d", len(res.Splitters), g)
		}
		res.Close()
		splitS = append(splitS, t1.Sub(t0).Seconds())
		classifyNS = append(classifyNS, float64(t2.Sub(t1).Nanoseconds())/float64(len(w.in)))
	}
	w.rep.Layers["approxsplit.splitters_s"] = median(splitS)
	w.rep.Layers["approxsplit.classify_ns_per_elem"] = median(classifyNS)
	return nil
}

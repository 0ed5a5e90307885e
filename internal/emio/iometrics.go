package emio

// Live-metrics wiring for the EM machine. An IOMetrics bundles the handles
// the I/O hot paths record through: logical block reads/writes with
// latencies, physical transfers with latencies and coalesced-run sizes,
// pipeline queue depth, prefetch hits/misses, free-extent reuse, live
// disk/scratch gauges, and the phase stack fed by span boundaries.
//
// The determinism contract matches the tracer's: recording reads the wall
// clock and bumps atomics, but performs no simulated I/O, no budgeted
// allocation and no random draws, so logical Stats, trace span trees and all
// outputs are bit-identical with metrics enabled or disabled (the metrics
// parity suite proves it). With metrics disabled every hot-path site is one
// nil check.
//
// Handles are bound per recording role (algorithm goroutine, write-behind
// worker, prefetch goroutines), so concurrent recording never contends on a
// cache line; see package metrics.

import (
	"sync/atomic"

	"repro/internal/emio/metrics"
)

// IOMetrics is the live instrument bundle of one Disk. Create it by calling
// Disk.EnableMetrics with a registry; several Disks may share one registry
// (registration is idempotent and counters accumulate), which is how a
// multi-system benchmark serves a single scrape endpoint.
type IOMetrics struct {
	reg *metrics.Registry

	// Algorithm-goroutine handles: logical block transfers. The EM model is
	// sequential, so exactly one goroutine records these.
	logReads, logWrites   *metrics.CounterHandle
	logReadNS, logWriteNS *metrics.HistogramHandle
	corruptions           *metrics.CounterHandle // checksum mismatches surfaced to readers

	// Job-lifecycle events: cooperative cancellations and disk-quota
	// rejections. Bumped from whichever goroutine triggers them (a signal
	// handler for cancels) — handles are goroutine-safe.
	cancels      *metrics.CounterHandle
	quotaRejects *metrics.CounterHandle

	// Gauges (single atomics; updated from whichever goroutine owns the
	// underlying quantity).
	liveBlocks   *metrics.Gauge
	liveScratch  *metrics.Gauge
	queueDepth   *metrics.Gauge
	backingBytes *metrics.Gauge

	// Phase telemetry, fed by span boundaries (Ctx.StartSpan / Span.End)
	// whether or not a tracer is attached. The stack itself is mutated only
	// on the algorithm goroutine; observers read the atomic Info/Gauge.
	// curSeq publishes the innermost span's sequence number so latency
	// observations on any goroutine can carry it as an exemplar.
	phaseInfo   *metrics.Info
	phaseDepth  *metrics.Gauge
	phaseStarts *metrics.CounterVec
	phaseStack  []phaseFrame
	curSeq      atomic.Int64
}

// phaseFrame is one open span on the metrics phase stack.
type phaseFrame struct {
	name string
	seq  int64
}

// newIOMetrics registers the disk-level instruments on reg and binds the
// algorithm-goroutine handles.
func newIOMetrics(reg *metrics.Registry) *IOMetrics {
	m := &IOMetrics{reg: reg}
	m.logReads = reg.Counter("empart_logical_reads_total",
		"logical block reads charged to the EM cost model").Handle()
	m.logWrites = reg.Counter("empart_logical_writes_total",
		"logical block writes charged to the EM cost model").Handle()
	m.logReadNS = reg.Histogram("empart_logical_read_ns",
		"latency of one logical block read, store roundtrip included", "ns").Handle()
	m.logWriteNS = reg.Histogram("empart_logical_write_ns",
		"latency of one logical block write (enqueue time under write-behind)", "ns").Handle()
	m.corruptions = reg.Counter("empart_corruption_detected_total",
		"block reads rejected by CRC32C checksum verification").Handle()
	m.cancels = reg.Counter("empart_job_cancels_total",
		"jobs cancelled cooperatively (signal, context, admission)").Handle()
	m.quotaRejects = reg.Counter("empart_disk_quota_rejections_total",
		"block appends rejected by the disk-byte budget").Handle()
	m.liveBlocks = reg.Gauge("empart_live_disk_blocks",
		"blocks currently held by unreleased files")
	m.liveScratch = reg.Gauge("empart_live_scratch_files",
		"algorithm scratch files currently live")
	m.queueDepth = reg.Gauge("empart_write_queue_depth",
		"blocks staged or queued behind the write-behind worker")
	m.backingBytes = reg.Gauge("empart_backing_bytes",
		"high-water byte size of the backing file (0 for memory disks)")
	m.phaseInfo = reg.Info("empart_phase",
		"innermost algorithm phase currently executing", "name")
	m.phaseDepth = reg.Gauge("empart_phase_depth",
		"nesting depth of the live phase stack")
	m.phaseStarts = reg.CounterVec("empart_phase_started_total",
		"phase spans started, by phase name", "phase")
	return m
}

// Registry returns the registry the instruments live on.
func (m *IOMetrics) Registry() *metrics.Registry { return m.reg }

// Snapshot captures every metric on the registry.
func (m *IOMetrics) Snapshot() metrics.Snapshot { return m.reg.Snapshot() }

// pushPhase records a span start: returns the stack depth to restore at End.
func (m *IOMetrics) pushPhase(name string, seq int64) int {
	depth := len(m.phaseStack)
	m.phaseStack = append(m.phaseStack, phaseFrame{name: name, seq: seq})
	m.phaseInfo.Set(name)
	m.phaseDepth.Set(int64(depth + 1))
	m.curSeq.Store(seq)
	m.phaseStarts.With(name).Inc()
	return depth
}

// popPhaseTo truncates the phase stack back to depth (span end, including
// error unwinds past nested Ends).
func (m *IOMetrics) popPhaseTo(depth int) {
	if depth < 0 || depth > len(m.phaseStack) {
		return
	}
	m.phaseStack = m.phaseStack[:depth]
	top, seq := "", int64(0)
	if depth > 0 {
		top, seq = m.phaseStack[depth-1].name, m.phaseStack[depth-1].seq
	}
	m.phaseInfo.Set(top)
	m.phaseDepth.Set(int64(depth))
	m.curSeq.Store(seq)
}

// storeMetrics binds the physical-layer handles of one fileStore, one handle
// per recording role so the algorithm goroutine, the write-behind worker and
// the prefetch goroutines each own their shard.
type storeMetrics struct {
	physReads   *metrics.CounterHandle // synchronous reads (algorithm goroutine)
	prefReads   *metrics.CounterHandle // prefetch goroutines
	physWrites  *metrics.CounterHandle // sync appends or the write worker
	physReadNS  *metrics.HistogramHandle
	prefReadNS  *metrics.HistogramHandle
	physWriteNS *metrics.HistogramHandle

	writeRunBlocks *metrics.HistogramHandle // blocks per coalesced positioned write
	readRunBlocks  *metrics.HistogramHandle // blocks per coalesced prefetch read

	prefetchHits   *metrics.CounterHandle
	prefetchMisses *metrics.CounterHandle
	extentReuses   *metrics.CounterHandle
	extentFrees    *metrics.CounterHandle

	queueDepth   *metrics.Gauge
	backingBytes *metrics.Gauge

	// seq points at the owning IOMetrics' curSeq so pipeline goroutines can
	// stamp exemplars with the span that enqueued the work.
	seq *atomic.Int64
}

// newStoreMetrics registers the physical-layer instruments and binds the
// per-role handles.
func newStoreMetrics(m *IOMetrics) *storeMetrics {
	reg := m.reg
	physR := reg.Counter("empart_phys_reads_total",
		"positioned read syscalls issued to the backing file")
	physW := reg.Counter("empart_phys_writes_total",
		"positioned write syscalls issued to the backing file")
	physRNS := reg.Histogram("empart_phys_read_ns",
		"latency of one positioned backing-file read", "ns")
	physWNS := reg.Histogram("empart_phys_write_ns",
		"latency of one positioned backing-file write", "ns")
	return &storeMetrics{
		physReads:   physR.Handle(),
		prefReads:   physR.Handle(),
		physWrites:  physW.Handle(),
		physReadNS:  physRNS.Handle(),
		prefReadNS:  physRNS.Handle(),
		physWriteNS: physWNS.Handle(),
		writeRunBlocks: reg.Histogram("empart_phys_write_run_blocks",
			"logical blocks retired per coalesced positioned write", "blocks").Handle(),
		readRunBlocks: reg.Histogram("empart_phys_read_run_blocks",
			"logical blocks fetched per coalesced prefetch read", "blocks").Handle(),
		prefetchHits: reg.Counter("empart_prefetch_hits_total",
			"sequential reads served from a read-ahead staging buffer").Handle(),
		prefetchMisses: reg.Counter("empart_prefetch_misses_total",
			"reads that fell back to a direct positioned read").Handle(),
		extentReuses: reg.Counter("empart_extent_reuses_total",
			"block appends served from the free-extent list").Handle(),
		extentFrees: reg.Counter("empart_extent_frees_total",
			"block extents returned to the free list by releases").Handle(),
		queueDepth:   m.queueDepth,
		backingBytes: m.backingBytes,
		seq:          &m.curSeq,
	}
}

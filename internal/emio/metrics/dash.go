package metrics

// The live terminal dashboard: a pure Snapshot -> string renderer plus a
// small refresh loop, shared by `emtop` (scraping /metrics over HTTP) and
// the -top flag of the CLIs (polling the registry in-process). Keeping the
// renderer pure makes it trivially testable and keeps all terminal concerns
// (ANSI cursor homing, width clamping) in one place.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// sparkRunes are the eight sparkline levels, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders bucket counts as one rune per bucket, scaled to the
// largest bucket. Empty input renders as "".
func sparkline(buckets []int64) string {
	var max int64
	for _, n := range buckets {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return ""
	}
	var b strings.Builder
	for _, n := range buckets {
		if n == 0 {
			b.WriteRune(' ')
			continue
		}
		idx := int(int64(len(sparkRunes)-1) * n / max)
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// humanNS renders a nanosecond quantity at a human scale (ns/µs/ms/s).
func humanNS(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.1fms", float64(ns)/float64(time.Millisecond))
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.1fµs", float64(ns)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// ratio renders hits/(hits+misses) as a percentage, "-" when nothing
// happened yet.
func ratio(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// dashHistograms are the latency/size histograms the dashboard renders, in
// display order.
var dashHistograms = []string{
	"empart_logical_read_ns",
	"empart_logical_write_ns",
	"empart_phys_read_ns",
	"empart_phys_write_ns",
	"empart_io_retry_backoff_ns",
}

// RenderDashboard renders one dashboard frame from a registry snapshot.
// width clamps line length (0 means no clamp). The frame is plain text with
// trailing newline per line and no cursor control — callers own the screen.
func RenderDashboard(snap Snapshot, width int) string {
	var b strings.Builder

	phase := snap.Infos["empart_phase"]
	if phase == "" {
		phase = "(idle)"
	}
	fmt.Fprintf(&b, "phase: %s  depth=%d\n", phase, snap.Gauge("empart_phase_depth"))

	fmt.Fprintf(&b, "logical  reads=%s writes=%s  corruptions=%d\n",
		humanCount(snap.Counter("empart_logical_reads_total")),
		humanCount(snap.Counter("empart_logical_writes_total")),
		snap.Counter("empart_corruption_detected_total"))
	fmt.Fprintf(&b, "physical reads=%s writes=%s  backing=%s\n",
		humanCount(snap.Counter("empart_phys_reads_total")),
		humanCount(snap.Counter("empart_phys_writes_total")),
		humanBytes(snap.Gauge("empart_backing_bytes")))
	fmt.Fprintf(&b, "pipeline queue=%d  prefetch hit=%s (%s hits, %s misses)\n",
		snap.Gauge("empart_write_queue_depth"),
		ratio(snap.Counter("empart_prefetch_hits_total"), snap.Counter("empart_prefetch_misses_total")),
		humanCount(snap.Counter("empart_prefetch_hits_total")),
		humanCount(snap.Counter("empart_prefetch_misses_total")))
	fmt.Fprintf(&b, "disk     live=%d blocks, %d scratch files  extents reuse=%s free=%s\n",
		snap.Gauge("empart_live_disk_blocks"), snap.Gauge("empart_live_scratch_files"),
		humanCount(snap.Counter("empart_extent_reuses_total")),
		humanCount(snap.Counter("empart_extent_frees_total")))
	fmt.Fprintf(&b, "retries  %d retried, %d abandoned\n",
		snap.Counter("empart_io_retries_total"),
		snap.Counter("empart_io_retry_giveups_total"))

	b.WriteString("\n")
	for _, name := range dashHistograms {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(name, "empart_"), "_ns")
		line := fmt.Sprintf("%-16s %8s p50=%-7s p95=%-7s p99=%-7s max=%-7s",
			label, humanCount(h.Count), humanNS(h.P50), humanNS(h.P95), humanNS(h.P99), humanNS(h.Max))
		if h.MaxSeq != 0 {
			line += fmt.Sprintf(" span#%d", h.MaxSeq)
		}
		if s := sparkline(h.Buckets); s != "" {
			line += "  " + s
		}
		b.WriteString(line + "\n")
	}

	// Per-phase span starts, most-started first, capped to a handful of rows.
	type phaseCount struct {
		name string
		n    int64
	}
	var phases []phaseCount
	for k, v := range snap.Counters {
		if rest, ok := strings.CutPrefix(k, `empart_phase_started_total{phase="`); ok {
			phases = append(phases, phaseCount{strings.TrimSuffix(rest, `"}`), v})
		}
	}
	if len(phases) > 0 {
		sort.Slice(phases, func(i, j int) bool {
			if phases[i].n != phases[j].n {
				return phases[i].n > phases[j].n
			}
			return phases[i].name < phases[j].name
		})
		b.WriteString("\nspans started:")
		for i, p := range phases {
			if i == 6 {
				b.WriteString(" …")
				break
			}
			fmt.Fprintf(&b, " %s=%d", p.name, p.n)
		}
		b.WriteString("\n")
	}

	out := b.String()
	if width > 0 {
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		for i, l := range lines {
			if r := []rune(l); len(r) > width {
				lines[i] = string(r[:width])
			}
		}
		out = strings.Join(lines, "\n") + "\n"
	}
	return out
}

// humanBytes renders a byte count at a human scale.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Dash is a running dashboard loop; Stop halts it.
type Dash struct {
	stop chan struct{}
	done chan struct{}
}

// ansiHome clears the screen and homes the cursor (one frame overdraws the
// previous).
const ansiHome = "\x1b[H\x1b[2J"

// StartDash launches a dashboard redrawing to w every interval from the
// snapshot function (an in-process Registry.Snapshot closure, or a remote
// /metrics scrape+parse). Stop it when the job completes; the final frame is
// left on screen.
func StartDash(w io.Writer, interval time.Duration, width int, fn func() (Snapshot, error)) *Dash {
	if interval <= 0 {
		interval = time.Second
	}
	d := &Dash{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				snap, err := fn()
				if err != nil {
					fmt.Fprintf(w, "%sdashboard: %v\n", ansiHome, err)
					continue
				}
				fmt.Fprintf(w, "%s%s", ansiHome, RenderDashboard(snap, width))
			}
		}
	}()
	return d
}

// Stop halts the refresh loop and waits for the last frame to finish.
func (d *Dash) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}

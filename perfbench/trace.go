package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval of a traced job: either a boundary the
// benchmark records around a call into a layer, or a program span read back
// from the program's own OTLP export and grafted under the benchmark span
// that encloses it. Spans are kept in memory and written out when the run
// ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // unix nanoseconds
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects the spans of a traced run.
type recorder struct {
	spans []span
}

// add records a finished span and returns its id.
func (r *recorder) add(job, parent int, name string, start, end time.Time) int {
	return r.addNS(job, parent, name, start.UnixNano(), end.UnixNano())
}

func (r *recorder) addNS(job, parent int, name string, start, end int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// otlpDoc is the part of an OTLP/JSON trace export the benchmark reads.
type otlpDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				Start        string `json:"startTimeUnixNano"`
				End          string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

// graftOTLP imports the program spans of one job's OTLP trace export. Each
// program root goes under the narrowest benchmark span of the job that
// contains it; other spans keep their program parent.
func (r *recorder) graftOTLP(job int, doc []byte) error {
	if len(doc) == 0 {
		return nil
	}
	var d otlpDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("parse OTLP trace: %w", err)
	}
	type prog struct {
		id, parent, name string
		start, end       int64
	}
	var ps []prog
	for _, rs := range d.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				st, err1 := strconv.ParseInt(s.Start, 10, 64)
				en, err2 := strconv.ParseInt(s.End, 10, 64)
				if err1 != nil || err2 != nil {
					return fmt.Errorf("OTLP span %q: bad timestamps %q..%q", s.Name, s.Start, s.End)
				}
				ps = append(ps, prog{s.SpanID, s.ParentSpanID, s.Name, st, en})
			}
		}
	}
	bench := r.jobSpans(job)
	// addNS numbers spans consecutively, so the new ids are known up front.
	ids := make(map[string]int, len(ps))
	for i, p := range ps {
		ids[p.id] = len(r.spans) + i + 1
	}
	for _, p := range ps {
		parent, ok := ids[p.parent]
		if !ok {
			parent = enclosing(bench, p.start, p.end)
		}
		r.addNS(job, parent, p.name, p.start, p.end)
	}
	return nil
}

// jobSpans returns the spans recorded so far for one job.
func (r *recorder) jobSpans(job int) []span {
	var out []span
	for _, s := range r.spans {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// enclosing returns the id of the shortest span in cands that contains
// [start, end], falling back to one that contains start, then to the first.
func enclosing(cands []span, start, end int64) int {
	best, bestDur := 0, int64(-1)
	pick := func(ok func(span) bool) {
		for _, c := range cands {
			if ok(c) && (bestDur < 0 || c.dur() < bestDur) {
				best, bestDur = c.ID, c.dur()
			}
		}
	}
	pick(func(c span) bool { return c.Start <= start && end <= c.End })
	if best == 0 {
		pick(func(c span) bool { return c.Start <= start && start <= c.End })
	}
	if best == 0 && len(cands) > 0 {
		best = cands[0].ID
	}
	return best
}

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by the union of its children. The
// parallel engine's shard spans overlap, so the children of one parent share
// the covered time in proportion to their durations (a scale of union over
// summed durations, inherited by their subtrees). The self times of a job's
// spans then add up to the job's wall time.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	var walk func(s span, scale float64)
	walk = func(s span, scale float64) {
		ks := kids[s.ID]
		u := covered(s, ks)
		self[s.ID] = scale * float64(s.dur()-u)
		var total int64
		for _, k := range ks {
			total += max(min(k.End, s.End)-max(k.Start, s.Start), 0)
		}
		kidScale := scale
		if total > 0 {
			kidScale = scale * float64(u) / float64(total)
		}
		for _, k := range ks {
			walk(k, kidScale)
		}
	}
	for _, r := range kids[0] {
		walk(r, 1)
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return compareInt64(x.a, y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerOf names the layer a span's self time is charged to. Program spans
// are named "<package>/<phase>" and charge their package; benchmark spans
// are named "<layer>.<call>" and charge that layer; a job's root span
// charges "unattributed", the job time no layer boundary covers.
func layerOf(s span) string {
	if s.Parent == 0 {
		return "unattributed"
	}
	if i := strings.IndexByte(s.Name, '/'); i > 0 {
		return s.Name[:i]
	}
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// layerTable sums self time per layer and per span name over all jobs, in
// seconds per job.
type layerTable struct {
	Jobs   int                `json:"jobs"`
	JobS   float64            `json:"job_s_mean"`
	Layers map[string]float64 `json:"self_s_per_job_by_layer"`
	Names  map[string]float64 `json:"self_s_per_job_by_span"`
}

func buildLayerTable(spans []span) layerTable {
	t := layerTable{Layers: map[string]float64{}, Names: map[string]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		sec := self[s.ID] / 1e9
		t.Layers[layerOf(s)] += sec
		t.Names[s.Name] += sec
		if s.Parent == 0 {
			t.Jobs++
			t.JobS += float64(s.dur()) / 1e9
		}
	}
	if t.Jobs > 0 {
		n := float64(t.Jobs)
		t.JobS /= n
		for k := range t.Layers {
			t.Layers[k] /= n
		}
		for k := range t.Names {
			t.Names[k] /= n
		}
	}
	return t
}

// render prints the table, layers by descending self time.
func (t layerTable) render(w io.Writer) {
	fmt.Fprintf(w, "per-layer self time, mean of %d traced job(s), job wall %.4f s\n", t.Jobs, t.JobS)
	names := make([]string, 0, len(t.Layers))
	for k := range t.Layers {
		names = append(names, k)
	}
	slices.SortFunc(names, func(a, b string) int {
		if t.Layers[a] != t.Layers[b] {
			if t.Layers[a] > t.Layers[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(a, b)
	})
	for _, k := range names {
		share := 0.0
		if t.JobS > 0 {
			share = t.Layers[k] / t.JobS
		}
		fmt.Fprintf(w, "  %-14s %10.4f s  %6.2f%%\n", k, t.Layers[k], 100*share)
	}
}

// writeArtefacts writes the spans and the layer table of a traced run as one
// JSON document.
func writeArtefacts(path string, spans []span, table layerTable) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Table layerTable `json:"layer_table"`
		Spans []span     `json:"spans"`
	}{table, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cannedMetrics is a frozen /metrics payload in the exact shape
// Registry.WritePrometheus emits: counters, an info gauge, and a histogram
// with companion quantile gauges.
const cannedMetrics = `# TYPE empart_phase gauge
empart_phase{phase="merge"} 1
# TYPE empart_phase_depth gauge
empart_phase_depth 2
# TYPE empart_logical_reads_total counter
empart_logical_reads_total 4096
# TYPE empart_logical_writes_total counter
empart_logical_writes_total 4096
# TYPE empart_phys_reads_total counter
empart_phys_reads_total 147
# TYPE empart_phys_writes_total counter
empart_phys_writes_total 130
# TYPE empart_phase_started_total counter
empart_phase_started_total{phase="merge"} 3
empart_phase_started_total{phase="runs"} 1
# TYPE empart_phys_read_ns histogram
empart_phys_read_ns_bucket{le="1023"} 2
empart_phys_read_ns_bucket{le="2047"} 5
empart_phys_read_ns_bucket{le="+Inf"} 5
empart_phys_read_ns_sum 7680
empart_phys_read_ns_count 5
# TYPE empart_phys_read_ns_p50 gauge
empart_phys_read_ns_p50 1536
# TYPE empart_phys_read_ns_p95 gauge
empart_phys_read_ns_p95 2047
# TYPE empart_phys_read_ns_p99 gauge
empart_phys_read_ns_p99 2047
# TYPE empart_phys_read_ns_max gauge
empart_phys_read_ns_max 2047
`

// TestRunOnce drives the -once path end to end — HTTP scrape, exposition
// parse, dashboard render — against a canned payload.
func TestRunOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(cannedMetrics))
	}))
	defer srv.Close()

	var out strings.Builder
	if err := runOnce(srv.URL, 0, &out); err != nil {
		t.Fatalf("runOnce: %v", err)
	}
	frame := out.String()
	for _, want := range []string{
		"phase: merge",
		"reads=4.1k",
		"phys_read",
		"p50=1.5µs",
		"max=2.0µs",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRunOnceWidthClamp verifies the -width flag reaches the renderer.
func TestRunOnceWidthClamp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(cannedMetrics))
	}))
	defer srv.Close()

	var out strings.Builder
	if err := runOnce(srv.URL, 20, &out); err != nil {
		t.Fatalf("runOnce: %v", err)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if n := len([]rune(line)); n > 20 {
			t.Errorf("line exceeds width clamp (%d runes): %q", n, line)
		}
	}
}

// TestRunOnceScrapeFailure covers both failure modes: a non-200 endpoint and
// a connection that never opens.
func TestRunOnceScrapeFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	}))
	var out strings.Builder
	if err := runOnce(srv.URL, 0, &out); err == nil {
		t.Error("runOnce succeeded against a 503 endpoint")
	}
	srv.Close()
	if err := runOnce(srv.URL, 0, &out); err == nil {
		t.Error("runOnce succeeded against a closed endpoint")
	}
	if out.Len() != 0 {
		t.Errorf("failed scrapes still rendered output: %q", out.String())
	}
}

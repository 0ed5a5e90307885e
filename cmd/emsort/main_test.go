package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	empart "repro"
)

func opts(cfg empart.Config, backing string, trace bool) runOpts {
	return runOpts{cfg: cfg, backing: backing, trace: trace}
}

func TestRunSortsStream(t *testing.T) {
	in := strings.NewReader("5 3 9 1 -4 3")
	var out, report bytes.Buffer
	if err := run(opts(empart.Config{M: 64, B: 8}, "", true), in, &out, &report); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "-4\n1\n3\n3\n5\n9\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if !strings.Contains(report.String(), "N=6") {
		t.Errorf("report %q missing N", report.String())
	}
	if !strings.Contains(report.String(), "extsort/sort") {
		t.Errorf("report %q missing phase trace", report.String())
	}
}

func TestRunFileBacked(t *testing.T) {
	in := strings.NewReader("2 1")
	var out, report bytes.Buffer
	backing := filepath.Join(t.TempDir(), "d.dat")
	if err := run(opts(empart.Config{M: 64, B: 8}, backing, false), in, &out, &report); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n2\n" {
		t.Errorf("output %q", out.String())
	}
}

// TestRunHostLine pins the startup line: it records the host's O_DIRECT probe
// and the backend the run uses, and nothing else.
func TestRunHostLine(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		backing, probeDir, backend string
	}{
		{"", os.TempDir(), "memory"},
		{filepath.Join(dir, "d.dat"), dir, "file"},
	} {
		var out, report bytes.Buffer
		if err := run(opts(empart.Config{M: 64, B: 8}, tc.backing, false), strings.NewReader("2 1"), &out, &report); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("emsort: host directIO=%v  backend=%s", empart.DirectIOSupported(tc.probeDir), tc.backend)
		if line, _, _ := strings.Cut(report.String(), "\n"); line != want {
			t.Errorf("backing %q: host line %q, want %q", tc.backing, line, want)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out, report bytes.Buffer
	o := opts(empart.Config{M: 64, B: 8}, "", false)
	if err := run(o, strings.NewReader("12 potato"), &out, &report); err == nil {
		t.Error("non-numeric input accepted")
	}
	if err := run(o, strings.NewReader("   "), &out, &report); err == nil {
		t.Error("empty input accepted")
	}
	if err := run(opts(empart.Config{M: 1, B: 8}, "", false), strings.NewReader("1"), &out, &report); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRunWithTelemetry(t *testing.T) {
	// -metrics-addr and -progress together: the run must announce the scrape
	// URL, serve a final scrape with the job's counters, and print at least
	// the final progress line.
	var in bytes.Buffer
	for i := 2000; i > 0; i-- {
		fmt.Fprintln(&in, i)
	}
	var out, report bytes.Buffer
	o := opts(empart.Config{M: 64, B: 8}, "", false)
	o.metricsAddr = "127.0.0.1:0"
	o.progress = time.Hour // only the final Stop line fires deterministically
	if err := run(o, &in, &out, &report); err != nil {
		t.Fatal(err)
	}
	rep := report.String()
	if !strings.Contains(rep, "metrics on http://") {
		t.Errorf("report %q missing metrics URL", rep)
	}
	if !strings.Contains(rep, "progress: ") || !strings.Contains(rep, "ios") {
		t.Errorf("report %q missing progress line", rep)
	}
	if !strings.Contains(rep, "cost") {
		t.Errorf("report %q missing cost line", rep)
	}
}

func TestTelemetryScrapeDuringRun(t *testing.T) {
	// The scrape endpoint must serve live counters while the job runs: scrape
	// once between phases and once after, and require monotone growth.
	sys, err := empart.New(empart.Config{M: 1 << 10, B: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]empart.Elem, 1<<14)
	for i := range elems {
		elems[i] = empart.Elem{Key: int64(len(elems) - i), Aux: int64(i)}
	}
	f := sys.Stage(elems)
	sys.ResetStats()

	o := runOpts{metricsAddr: "127.0.0.1:0", progress: time.Hour}
	var report bytes.Buffer
	stop, err := startTelemetry(sys, o, int64(sys.Machine().Sort(int64(len(elems)))), &report)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	url := strings.TrimSpace(strings.TrimPrefix(
		strings.SplitN(report.String(), "\n", 2)[0], "emsort: metrics on "))

	scrape := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	mid, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	first := scrape()
	if !strings.Contains(first, "empart_logical_reads_total") {
		t.Fatalf("scrape missing logical read counter:\n%.400s", first)
	}
	readsAfterSort := counterValue(t, first, "empart_logical_reads_total")
	if readsAfterSort == 0 {
		t.Error("logical reads still zero after a sort")
	}
	out, err := sys.Sort(mid)
	if err != nil {
		t.Fatal(err)
	}
	second := scrape()
	if got := counterValue(t, second, "empart_logical_reads_total"); got <= readsAfterSort {
		t.Errorf("reads counter did not grow across jobs: %d -> %d", readsAfterSort, got)
	}
	if !strings.Contains(second, "empart_logical_read_ns_p99") {
		t.Error("scrape missing latency percentile gauges")
	}
	mid.Release()
	out.Release()
}

// counterValue extracts one metric value from a Prometheus text scrape.
func counterValue(t *testing.T, scrape, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in scrape", name)
	return 0
}

func TestParseKeysLargeValues(t *testing.T) {
	elems, err := collectKeys(strings.NewReader("9223372036854775807 -9223372036854775808"))
	if err != nil {
		t.Fatal(err)
	}
	if elems[0].Key != 1<<63-1 || elems[1].Key != -(1<<63) {
		t.Errorf("extreme values parsed wrong: %v", elems)
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	empart "repro"
)

func base() options {
	return options{
		algo: "splitters", n: 1 << 13, m: 4096, b: 32,
		k: 8, a: 64, bmax: 0, dist: "uniform", seed: 1,
	}
}

func TestExecuteEveryAlgo(t *testing.T) {
	for _, algo := range []string{
		"splitters", "partition", "multiselect", "multipartition", "precise", "sort",
	} {
		o := base()
		o.algo = algo
		if algo == "precise" {
			o.bmax = 1024
		}
		report, err := execute(o)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(report, "verified") {
			t.Errorf("%s: report lacks verification line: %q", algo, report)
		}
		if !strings.Contains(report, "cost:") {
			t.Errorf("%s: report lacks cost line", algo)
		}
	}
}

func TestExecuteHistogram(t *testing.T) {
	o := base()
	o.algo = "histogram"
	o.k = 8
	o.lo, o.hi = 0.5, 2
	report, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "8 buckets") {
		t.Errorf("report: %q", report)
	}
}

// TestExecuteHostLine pins the report's host line: it records the host's
// O_DIRECT probe and the backend the run uses, and nothing else.
func TestExecuteHostLine(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		backing, probeDir, backend string
	}{
		{"", os.TempDir(), "memory"},
		{filepath.Join(dir, "d.dat"), dir, "file"},
	} {
		o := base()
		o.backing = tc.backing
		report, err := execute(o)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("host: directIO=%v  backend=%s", empart.DirectIOSupported(tc.probeDir), tc.backend)
		if line, _, _ := strings.Cut(report, "\n"); line != want {
			t.Errorf("backing %q: host line %q, want %q", tc.backing, line, want)
		}
	}
}

func TestExecuteRejections(t *testing.T) {
	o := base()
	o.algo = "nope"
	if _, err := execute(o); err == nil {
		t.Error("unknown algo accepted")
	}
	o = base()
	o.dist = "nope"
	if _, err := execute(o); err == nil {
		t.Error("unknown distribution accepted")
	}
	o = base()
	o.m = 1
	if _, err := execute(o); err == nil {
		t.Error("bad machine accepted")
	}
	o = base()
	o.k = 3 // does not divide n
	if _, err := execute(o); err == nil {
		t.Error("invalid K accepted")
	}
}

func TestExecuteWithTelemetry(t *testing.T) {
	var telemetry bytes.Buffer
	o := base()
	o.metricsAddr = "127.0.0.1:0"
	o.progress = time.Hour // only the final Stop line fires deterministically
	o.progressOut = &telemetry
	report, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "verified") {
		t.Errorf("report lacks verification line: %q", report)
	}
	got := telemetry.String()
	if !strings.Contains(got, "metrics on http://") {
		t.Errorf("telemetry %q missing metrics URL", got)
	}
	if !strings.Contains(got, "progress: ") || !strings.Contains(got, "ios") {
		t.Errorf("telemetry %q missing progress line", got)
	}
}

// TestExecuteFileBackedUnderBudget pins a budgeted -backing sort to the
// report of the same sort held in memory. The budget sizes merge fan-in by
// the disk's consume lag, so a file path that deepened the lag would narrow
// the merge: at this budget it would take 12500 I/Os instead of 7500.
func TestExecuteFileBackedUnderBudget(t *testing.T) {
	o := base()
	o.algo, o.n, o.m, o.budget = "sort", 40000, 1024, 1300000
	mem, err := execute(o)
	if err != nil {
		t.Fatalf("memory: %v", err)
	}
	o.backing = filepath.Join(t.TempDir(), "d.dat")
	file, err := execute(o)
	if err != nil {
		t.Fatalf("file: %v", err)
	}
	_, memRest, _ := strings.Cut(mem, "\n")
	_, fileRest, _ := strings.Cut(file, "\n")
	if fileRest != memRest {
		t.Errorf("file-backed report differs from memory-backed\nfile:\n%s\nmemory:\n%s", fileRest, memRest)
	}
	if !strings.Contains(memRest, "total=7500") {
		t.Errorf("report %q: want cost total=7500", memRest)
	}
}

// TestExecuteFileBackedMatchesMemory pins the file path: a -backing run,
// which goes through the prefetch/write-behind pipeline, prints exactly the
// report of a memory-backed run (verification, cost, peak memory and phase
// trace) apart from the host line naming the backend.
func TestExecuteFileBackedMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	for _, algo := range []string{
		"splitters", "partition", "multiselect", "multipartition", "precise", "sort", "histogram",
	} {
		o := base()
		o.algo, o.trace = algo, true
		if algo == "precise" {
			o.bmax = 1024
		}
		mem, err := execute(o)
		if err != nil {
			t.Fatalf("%s memory: %v", algo, err)
		}
		o.backing = filepath.Join(dir, algo+".dat")
		file, err := execute(o)
		if err != nil {
			t.Fatalf("%s file: %v", algo, err)
		}
		_, memRest, _ := strings.Cut(mem, "\n")
		_, fileRest, _ := strings.Cut(file, "\n")
		if fileRest != memRest {
			t.Errorf("%s: file-backed report differs from memory-backed\nfile:\n%s\nmemory:\n%s", algo, fileRest, memRest)
		}
	}
}

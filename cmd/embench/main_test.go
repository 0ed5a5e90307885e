package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestQuickSweep runs the whole Table-1 sweep in process at the -quick size
// and checks its shape, the lower bounds and determinism.
func TestQuickSweep(t *testing.T) {
	o := options{n: 1 << 18, m: 1 << 12, b: 1 << 5, quick: true, dist: "uniform", json: true}
	var first, second bytes.Buffer
	if err := run(&first, o); err != nil {
		t.Fatal(err)
	}
	if err := run(&second, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two runs with the same flags gave different output")
	}

	var rows []row
	if err := json.Unmarshal(first.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 57 {
		t.Errorf("got %d rows, want 57", len(rows))
	}
	sections := map[string]bool{}
	bounded := 0
	for _, r := range rows {
		id, _, _ := strings.Cut(r.Section, ":")
		sections[id] = true
		if r.LB == 0 {
			continue
		}
		bounded++
		// Measuring fewer I/Os than a proven lower bound is a counting bug.
		if r.RatioLB < 1 {
			t.Errorf("%s %s: %d I/Os is below the lower bound %.0f", id, r.Label, r.IOs, r.LB)
		}
	}
	if bounded != 31 {
		t.Errorf("got %d rows with a lower bound, want 31", bounded)
	}
	for _, id := range []string{
		"T1-R-SPL", "T1-L-SPL", "T1-2-SPL", "T1-R-PAR", "T1-L-PAR", "T1-L-PAR flatness",
		"T1-2-PAR", "THM4-SEP", "SORT-BASE", "INTERMIX", "RED-3", "MACHINE-SWEEP",
	} {
		if !sections[id] {
			t.Errorf("section %s missing", id)
		}
	}
	if len(sections) != 12 {
		t.Errorf("got %d sections, want 12", len(sections))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, o := range []options{
		{n: 1 << 10, m: 1 << 12, b: 1 << 5, dist: "nope"},
		{n: 1 << 10, m: 16, b: 32, dist: "uniform"},
	} {
		var out bytes.Buffer
		if err := run(&out, o); err == nil {
			t.Errorf("run(%+v) succeeded, want an error", o)
		}
		if out.Len() != 0 {
			t.Errorf("run(%+v) wrote %d bytes before failing", o, out.Len())
		}
	}
}

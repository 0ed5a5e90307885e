package empart

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// Job-layer validation: the crash-safe sort job must refuse configurations
// it cannot honor — and refuse to resume a journal whose machine shape
// differs from the caller's, since M and B determine the run structure.

func TestOpenSortJobValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{M: 1 << 10, B: 1 << 5}
	load := addAll(workload.Elems(workload.Uniform, 1<<10, cfg.B, 1))

	if _, err := OpenSortJob(JobConfig{Config: cfg, Journal: filepath.Join(dir, "j")}, load); err == nil {
		t.Error("job without a backing file accepted")
	}
	if _, err := OpenSortJob(JobConfig{Config: cfg, Path: filepath.Join(dir, "b.dat")}, load); err == nil {
		t.Error("job without a journal accepted")
	}
	par := cfg
	par.Workers = 4
	if _, err := OpenSortJob(JobConfig{Config: par, Path: filepath.Join(dir, "b.dat"), Journal: filepath.Join(dir, "j")}, load); err == nil {
		t.Error("parallel checkpointed job accepted; shard scratch is not journaled")
	}
	if _, err := OpenSortJob(JobConfig{Config: cfg, Path: filepath.Join(dir, "no.dat"), Journal: filepath.Join(dir, "absent.journal"), Resume: true}, load); err == nil {
		t.Error("resume from a journal with no staged input accepted")
	}
}

func TestSortJobRunAndResumeShapeCheck(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{M: 1 << 10, B: 1 << 5}
	backing := filepath.Join(dir, "b.dat")
	journal := filepath.Join(dir, "j.journal")
	elems := workload.Elems(workload.Uniform, 1<<12, cfg.B, 0x50b7)

	job, err := OpenSortJob(JobConfig{Config: cfg, Path: backing, Journal: journal}, addAll(elems))
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Run()
	if err != nil {
		t.Fatalf("job run: %v", err)
	}
	if out.Len() != int64(len(elems)) {
		t.Errorf("output length %d, want %d", out.Len(), len(elems))
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}

	// Resuming with a different machine shape must be refused loudly: a
	// different M or B would re-plan the runs over adopted state.
	other := Config{M: 1 << 11, B: 1 << 5}
	_, err = OpenSortJob(JobConfig{Config: other, Path: backing, Journal: journal, Resume: true}, nil)
	if err == nil {
		t.Fatal("resume with mismatched M accepted")
	}
	if !strings.Contains(err.Error(), "refusing resume") {
		t.Errorf("mismatch error does not explain the refusal: %v", err)
	}

	// Resuming with the right shape adopts the finished output with no I/O.
	job2, err := OpenSortJob(JobConfig{Config: cfg, Path: backing, Journal: journal, Resume: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer job2.Close()
	if _, _, done := job2.Resumable(); !done {
		t.Error("finished job not reported done on resume")
	}
	sys := job2.System()
	sys.ResetStats()
	out2, err := job2.Run()
	if err != nil {
		t.Fatalf("resume of finished job: %v", err)
	}
	if st := sys.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Errorf("resume of finished job performed I/O %+v", st)
	}
	if out2.Len() != int64(len(elems)) {
		t.Errorf("resumed output length %d, want %d", out2.Len(), len(elems))
	}
}

// A failing input stream fails the job before anything is journaled, so the
// journal it leaves cannot be resumed.
func TestSortJobLoadError(t *testing.T) {
	dir := t.TempDir()
	jc := JobConfig{Config: Config{M: 1 << 10, B: 1 << 5}, Path: filepath.Join(dir, "b.dat"), Journal: filepath.Join(dir, "j")}
	boom := errors.New("boom")
	_, err := OpenSortJob(jc, func(add func(Elem)) error {
		for i := 0; i < 100; i++ {
			add(Elem{Key: int64(i), Aux: int64(i)})
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("load error %v, want %v", err, boom)
	}
	jc.Resume = true
	if _, err := OpenSortJob(jc, nil); err == nil {
		t.Error("resumed a job whose input never finished staging")
	}
}

// addAll is a streaming job input that adds the elements of s in order.
func addAll(s []Elem) func(add func(Elem)) error {
	return func(add func(Elem)) error {
		for _, e := range s {
			add(e)
		}
		return nil
	}
}

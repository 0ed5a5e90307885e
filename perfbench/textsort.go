package main

// The sort_text workload drives the emsort binary: each job pipes the
// generated text into a fresh emsort process and reads the sorted keys from
// its stdout. The job's wall time is split at the pipe boundaries:
//
//	ingest  from spawn until the last input byte is written and stdin closed
//	core    from then until the first output byte arrives
//	egress  from the first output byte until stdout closes and emsort exits
//
// The pipe holds at most one pipe buffer (64 KiB on Linux) that emsort has
// not parsed yet when ingest ends, well under 1% of the input.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	empart "repro"
)

// textInput is the sort_text input in the form emsort reads, with the
// digest its output must match.
type textInput struct {
	text   []byte
	n      int
	digest uint64
}

func makeText(in []empart.Elem) textInput {
	t := textInput{text: make([]byte, 0, 10*len(in)), n: len(in)}
	for _, e := range in {
		t.text = strconv.AppendInt(t.text, e.Key, 10)
		t.text = append(t.text, '\n')
		t.digest += mix(uint64(e.Key))
	}
	return t
}

// mix is the splitmix64 finalizer; the multiset digest of a key sequence is
// the wrapping sum of mix over its keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// verifyText checks emsort's output: one key per line, nondecreasing, as
// many lines as the input and the same multiset digest.
func verifyText(out []byte, want textInput) error {
	var digest uint64
	lines := 0
	prev := int64(0)
	for len(out) > 0 {
		i := bytes.IndexByte(out, '\n')
		if i < 0 {
			return fmt.Errorf("output line %d is not newline-terminated", lines+1)
		}
		k, err := strconv.ParseInt(string(out[:i]), 10, 64)
		if err != nil {
			return fmt.Errorf("output line %d: %w", lines+1, err)
		}
		if lines > 0 && k < prev {
			return fmt.Errorf("output line %d: %d after %d, not sorted", lines+1, k, prev)
		}
		prev = k
		digest += mix(uint64(k))
		lines++
		out = out[i+1:]
	}
	if lines != want.n {
		return fmt.Errorf("output has %d lines, want %d", lines, want.n)
	}
	if digest != want.digest {
		return fmt.Errorf("output keys are not the input's multiset")
	}
	return nil
}

// emsortRun is one emsort process's measurements.
type emsortRun struct {
	rec                  jobRec
	start, spawn, ingest time.Time
	first, end           time.Time
	rssKiB               int64
	otlp                 []byte
}

var costLine = regexp.MustCompile(`cost reads=(\d+) writes=(\d+) total=(\d+)`)

// runEmsort runs one emsort job on cfg's machine with its simulated disk
// backed by a file in dir, which must be empty, and passes its output to
// check. With traced set emsort exports its span tree as OTLP. Failures of
// the job land in rec.Err.
func runEmsort(bin, dir string, cfg empart.Config, in textInput, traced bool, check func([]byte) error) emsortRun {
	var r emsortRun
	r.rec = jobRec{Kind: "emsort", Traced: traced}
	fail := func(format string, a ...any) emsortRun {
		if r.rec.Err == "" {
			r.rec.Err = fmt.Sprintf(format, a...)
		}
		return r
	}
	backing := filepath.Join(dir, "disk.bin")
	otlpPrefix := filepath.Join(filepath.Dir(dir), "emsort-otlp")
	args := []string{"-m", strconv.Itoa(cfg.M), "-b", strconv.Itoa(cfg.B), "-backing", backing}
	if traced {
		args = append(args, "-otlp", otlpPrefix)
	}

	runtime.GC()
	r.start = time.Now()
	inR, inW, err := os.Pipe()
	if err != nil {
		return fail("stdin pipe: %v", err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return fail("stdout pipe: %v", err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, &stderr
	r.spawn = time.Now()
	err = cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return fail("start emsort: %v", err)
	}
	type written struct {
		at  time.Time
		err error
	}
	ingested := make(chan written, 1)
	go func() {
		_, err := inW.Write(in.text)
		if cerr := inW.Close(); err == nil {
			err = cerr
		}
		ingested <- written{time.Now(), err}
	}()
	out := bytes.NewBuffer(make([]byte, 0, len(in.text)))
	chunk := make([]byte, 1<<16)
	var readErr error
	for {
		n, err := outR.Read(chunk)
		if n > 0 {
			if r.first.IsZero() {
				r.first = time.Now()
			}
			out.Write(chunk[:n])
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	outR.Close()
	waitErr := cmd.Wait()
	r.end = time.Now()
	w := <-ingested
	r.ingest = w.at

	r.rec.WallS = r.end.Sub(r.start).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		r.rec.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssKiB = ru.Maxrss
		}
	}
	switch {
	case waitErr != nil:
		return fail("emsort: %v: %s", waitErr, bytes.TrimSpace(stderr.Bytes()))
	case w.err != nil:
		return fail("writing emsort's stdin: %v", w.err)
	case readErr != nil:
		return fail("reading emsort's stdout: %v", readErr)
	case r.first.IsZero():
		return fail("emsort wrote no output")
	}

	// Outside the timed region: cost line, disk footprint, leaks, output.
	m := costLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		return fail("no cost line in emsort's report: %s", bytes.TrimSpace(stderr.Bytes()))
	}
	r.rec.IOs, _ = strconv.ParseInt(string(m[3]), 10, 64)
	st, err := os.Stat(backing)
	if err != nil {
		return fail("backing file: %v", err)
	}
	r.rec.Amp = float64(st.Size()) / float64(16*in.n)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fail("scratch directory: %v", err)
	}
	if len(ents) != 1 {
		return fail("emsort left %d files in its scratch directory, want only the backing file", len(ents))
	}
	if err := os.Remove(backing); err != nil {
		return fail("remove backing file: %v", err)
	}
	if traced {
		r.otlp, err = os.ReadFile(otlpPrefix + ".trace.json")
		if err != nil {
			return fail("emsort trace export: %v", err)
		}
		os.Remove(otlpPrefix + ".trace.json")
		os.Remove(otlpPrefix + ".metrics.json")
	}
	if err := check(out.Bytes()); err != nil {
		return fail("%v", err)
	}
	return r
}

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	empart "repro"
)

// keyText streams n pseudo-random keys as text lines without ever holding
// them, so the input costs the test no heap whatever n is.
type keyText struct {
	n, i int
	x    uint64
	line []byte
	rest []byte
}

func (r *keyText) Read(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		if len(r.rest) == 0 {
			if r.i == r.n {
				break
			}
			r.i++
			r.x = r.x*6364136223846793005 + 1442695040888963407
			r.line = append(strconv.AppendInt(r.line[:0], int64(r.x>>40), 10), '\n')
			r.rest = r.line
		}
		k := copy(p[done:], r.rest)
		r.rest = r.rest[k:]
		done += k
	}
	if done == 0 {
		return 0, io.EOF
	}
	return done, nil
}

// lineCounter counts the newlines written to it.
type lineCounter int

func (c *lineCounter) Write(p []byte) (int, error) {
	*c += lineCounter(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// peakLiveHeap runs fn while sampling the live Go heap (as marked by a GC
// forced every few milliseconds) and returns the largest sample.
func peakLiveHeap(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	stop, result := make(chan struct{}), make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-stop:
				result <- max(peak, read())
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	return <-result
}

// TestRunHeapBoundedInN checks that the file-backed sort holds O(M + B) of
// host memory, not O(N): at fixed M the peak live heap of run() may not grow
// by 2 MiB when the input grows 8x.
func TestRunHeapBoundedInN(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts 2^20 keys")
	}
	cfg := empart.Config{M: 1 << 14, B: 1 << 7}
	peak := func(n int) uint64 {
		backing := filepath.Join(t.TempDir(), "d.bin")
		var out lineCounter
		var err error
		p := peakLiveHeap(func() {
			err = run(opts(cfg, backing, false), &keyText{n: n, x: uint64(n)}, &out, io.Discard)
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if int(out) != n {
			t.Fatalf("n=%d: %d output lines", n, out)
		}
		return p
	}
	small, large := peak(1<<17), peak(1<<20)
	t.Logf("peak live heap: %d KiB at N=2^17, %d KiB at N=2^20", small>>10, large>>10)
	if large > small+2<<20 {
		t.Errorf("peak live heap grew by %d KiB for 8x the input; want under 2 MiB", (large-small)>>10)
	}
}

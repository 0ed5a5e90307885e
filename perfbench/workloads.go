package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"runtime"

	empart "repro"
	"repro/internal/workload"
)

// spec is one named workload: the input it generates from the seed and the
// machine it runs on.
type spec struct {
	name   string
	kind   workload.Kind
	n      int
	cfg    empart.Config
	inProc bool // jobs are facade calls in a worker process, not emsort runs
}

// parWorkers is the worker count of the parallel workload: two, but never
// more than the host's CPUs.
func parWorkers() int { return min(2, runtime.NumCPU()) }

func specs() []spec {
	return []spec{
		// The emsort user path: text parse and format, extsort run
		// formation and merge.
		{
			name: "sort_text", kind: workload.Uniform, n: 1 << 21,
			cfg: empart.Config{M: 1 << 18, B: 128},
		},
		// The paper's algorithms on duplicate-heavy keys, with read-heavy
		// I/O through the pipeline.
		{
			name: "query_zipf", kind: workload.ZipfLike, n: 1 << 21,
			cfg:    empart.Config{M: 1 << 18, B: 128, Pipeline: empart.Pipeline{Enabled: true}},
			inProc: true,
		},
		// The empar shard engine at the paper's small-block shape, with
		// syscall-bound positioned I/O.
		{
			name: "sort_par_smallblock", kind: workload.Uniform, n: 1 << 20,
			cfg:    empart.Config{M: 1 << 12, B: 32, Workers: parWorkers()},
			inProc: true,
		},
	}
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Query round parameters (query_zipf): every facade call uses K = 64.
const queryK = 64

func splittersParams(n int64) empart.Params {
	return empart.Params{K: queryK, A: n / 256, B: n}
}

func partitionParams(n int64) empart.Params {
	return empart.Params{K: queryK, A: n / 128, B: n / 32}
}

// selectRanks returns queryK equally spaced 1-based ranks, the last being n.
func selectRanks(n int64) []int64 {
	r := make([]int64, queryK)
	for i := range r {
		r[i] = int64(i+1) * n / queryK
	}
	return r
}

// outFiles names the files a job's outputs are written to for verification,
// in the order the job returns them.
func outFiles(kind string) []string {
	if kind == "query" {
		return []string{"out-splitters.bin", "out-partition.bin", "out-select.bin"}
	}
	return []string{"out-sorted.bin"}
}

// digest fingerprints a job's outputs (CRC-64 of their encoding and the
// partition sizes); jobs with equal digests produced identical outputs.
func digest(outs [][]empart.Elem, sizes []int64) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	buf := make([]byte, 0, 1<<16)
	put := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, es := range outs {
		put(uint64(len(es)))
		for _, e := range es {
			put(uint64(e.Key))
			put(uint64(e.Aux))
		}
	}
	for _, s := range sizes {
		put(uint64(s))
	}
	h.Write(buf)
	return h.Sum64()
}

// writeElems stores elements as little-endian (Key, Aux) pairs.
func writeElems(path string, es []empart.Elem) error {
	buf := make([]byte, 16*len(es))
	for i, e := range es {
		binary.LittleEndian.PutUint64(buf[16*i:], uint64(e.Key))
		binary.LittleEndian.PutUint64(buf[16*i+8:], uint64(e.Aux))
	}
	return os.WriteFile(path, buf, 0o644)
}

// readElems loads a file written by writeElems.
func readElems(path string) ([]empart.Elem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(buf)%16 != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a whole number of elements", path, len(buf))
	}
	es := make([]empart.Elem, len(buf)/16)
	for i := range es {
		es[i] = empart.Elem{
			Key: int64(binary.LittleEndian.Uint64(buf[16*i:])),
			Aux: int64(binary.LittleEndian.Uint64(buf[16*i+8:])),
		}
	}
	return es, nil
}

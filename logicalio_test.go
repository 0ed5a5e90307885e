package empart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// The logical-I/O golden test: exact block reads and writes, pinned as
// literals, for every facade algorithm on the memory backend. Logical I/O is
// deterministic and host-independent — it is the quantity the paper's
// Table 1 bounds — so any change to an algorithm's access pattern, however
// small, shows up here as a changed count. Groups (a) and (b) are the rows
// committed in BENCH_pr3.json (n=131072) and BENCH_pr7.json (N=2^21),
// reproduced verbatim; group (c) covers the remaining algorithms at one small
// shape, on uniform and zipf keys, with an output digest next to the counts.

// goldenRow is one pinned measurement. digest is FNV-64a over the output's
// (Key, Aux) pairs; 0 means the row pins I/O counts only.
type goldenRow struct {
	name          string
	reads, writes int64
	digest        uint64
}

// elemDigest hashes a sequence of elements, keys and aux values both.
func elemDigest(elems []Elem) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range elems {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e.Key))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Aux))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// measureGolden stages elems on a fresh memory-backed System, runs op with
// the stats reset, and returns the logical counts and op's output digest.
func measureGolden(t *testing.T, cfg Config, elems []Elem, op func(*System, *File) ([]Elem, error)) (Stats, uint64) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := sys.Stage(elems)
	sys.ResetStats()
	out, err := op(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	return st, elemDigest(out)
}

// fileOut adapts a File-returning operation. Snapshot is a harness-side
// read and charges no I/O, so the counts are the operation's alone.
func fileOut(run func(*System, *File) (*File, error)) func(*System, *File) ([]Elem, error) {
	return func(sys *System, f *File) ([]Elem, error) {
		out, err := run(sys, f)
		if err != nil {
			return nil, err
		}
		return out.Snapshot(), nil
	}
}

func checkGolden(t *testing.T, want goldenRow, st Stats, digest uint64) {
	t.Helper()
	if st.Reads != want.reads || st.Writes != want.writes {
		t.Errorf("%s: reads/writes = %d/%d, want %d/%d", want.name, st.Reads, st.Writes, want.reads, want.writes)
	}
	if want.digest != 0 && digest != want.digest {
		t.Errorf("%s: output digest = %#x, want %#x", want.name, digest, want.digest)
	}
}

// (a) BENCH_pr3.json at n=131072: M=4096, B=32, uniform seed 0x9423.
func TestLogicalIOGoldenPR3(t *testing.T) {
	const n = 1 << 17
	cfg := Config{M: 1 << 12, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x9423)
	for _, tc := range []struct {
		want goldenRow
		run  func(*System, *File) (*File, error)
	}{
		{goldenRow{name: "sort", reads: 8192, writes: 8192}, func(s *System, f *File) (*File, error) {
			return s.Sort(f)
		}},
		{goldenRow{name: "partition", reads: 13338, writes: 8972}, func(s *System, f *File) (*File, error) {
			res, err := s.Partition(f, Params{K: 64, A: 0, B: n / 16})
			if err != nil {
				return nil, err
			}
			return res.Data, nil
		}},
		{goldenRow{name: "splitters", reads: 837, writes: 585}, func(s *System, f *File) (*File, error) {
			return s.Splitters(f, Params{K: 64, A: 64, B: n})
		}},
	} {
		st, _ := measureGolden(t, cfg, elems, fileOut(tc.run))
		checkGolden(t, tc.want, st, 0)
	}
}

// (b) BENCH_pr7.json at N=2^21: M=2^18, B=128, uniform seed 0x9427.
func TestLogicalIOGoldenPR7(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2^21 rows; skipped under -short")
	}
	const n = 1 << 21
	elems := workload.Elems(workload.Uniform, n, 1<<7, 0x9427)
	for _, tc := range []struct {
		want    goldenRow
		workers int
		run     func(*System, *File) (*File, error)
	}{
		{goldenRow{name: "distsort workers=0", reads: 67534, writes: 34766}, 0, func(s *System, f *File) (*File, error) {
			return s.DistributionSort(f)
		}},
		{goldenRow{name: "extsort workers=2", reads: 33523, writes: 32768}, 2, func(s *System, f *File) (*File, error) {
			return s.Sort(f)
		}},
	} {
		cfg := Config{M: 1 << 18, B: 1 << 7, Workers: tc.workers}
		st, _ := measureGolden(t, cfg, elems, fileOut(tc.run))
		checkGolden(t, tc.want, st, 0)
	}
}

// (c) The remaining facade algorithms at N=2^15, M=2^10, B=2^5 (two merge
// passes, 32-way fan-in), on uniform and zipf keys.
func TestLogicalIOGoldenFacade(t *testing.T) {
	const n, k = 1 << 15, 16
	cfg := Config{M: 1 << 10, B: 1 << 5}
	ranks := make([]int64, k-1)
	sizes := make([]int64, k)
	for i := range sizes {
		sizes[i] = n / k
		if i < k-1 {
			ranks[i] = int64(i+1) * n / k
		}
	}
	ops := []struct {
		name string
		cfg  Config
		run  func(*System, *File) ([]Elem, error)
	}{
		{"select", cfg, func(s *System, f *File) ([]Elem, error) {
			e, err := s.Select(f, n/3)
			return []Elem{e}, err
		}},
		{"multiselect", cfg, fileOut(func(s *System, f *File) (*File, error) {
			return s.MultiSelect(f, ranks)
		})},
		{"multipartition", cfg, fileOut(func(s *System, f *File) (*File, error) {
			return s.MultiPartition(f, sizes)
		})},
		{"precisepartition", cfg, fileOut(func(s *System, f *File) (*File, error) {
			return s.PrecisePartition(f, n/k)
		})},
		{"histogram", cfg, func(s *System, f *File) ([]Elem, error) {
			bs, err := s.EquiDepthHistogram(f, k, 0.5, 0.5)
			var out []Elem
			for _, b := range bs {
				out = append(out, b.Upper, Elem{Key: b.Count})
			}
			return out, err
		}},
		{"distsort", cfg, fileOut(func(s *System, f *File) (*File, error) {
			return s.DistributionSort(f)
		})},
		{"sort workers=2", Config{M: cfg.M, B: cfg.B, Workers: 2}, fileOut(func(s *System, f *File) (*File, error) {
			return s.Sort(f)
		})},
	}
	want := map[string]goldenRow{}
	for _, w := range goldenFacade {
		want[w.name] = w
	}
	for _, kind := range []workload.Kind{workload.Uniform, workload.ZipfLike} {
		elems := workload.Elems(kind, n, cfg.B, 0x601d)
		for _, op := range ops {
			name := fmt.Sprintf("%s %s", op.name, kind)
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s: no golden row", name)
			}
			st, digest := measureGolden(t, op.cfg, elems, op.run)
			checkGolden(t, w, st, digest)
		}
	}
}

// goldenFacade pins group (c): name is "<op> <kind>".
var goldenFacade = []goldenRow{
	{"select uniform", 2194, 1960, 0xcc4e275a8461dad0},
	{"multiselect uniform", 10328, 5107, 0xb14b22863477f02c},
	{"multipartition uniform", 4501, 2898, 0xe4aacc84197c3d75},
	{"precisepartition uniform", 14400, 10729, 0xe4aacc84197c3d75},
	{"histogram uniform", 11353, 5107, 0x3e981f3ea185e1b6},
	{"distsort uniform", 9168, 5073, 0x2614ad83d412e451},
	{"sort workers=2 uniform", 5860, 5234, 0x2614ad83d412e451},
	{"select zipf", 1850, 1644, 0x8225e9eaf05ff43d},
	{"multiselect zipf", 10275, 5076, 0xbb3246e2a6c0e216},
	{"multipartition zipf", 4492, 2888, 0x7ffea19d91e4c02a},
	{"precisepartition zipf", 14679, 10848, 0x7ffea19d91e4c02a},
	{"histogram zipf", 11300, 5076, 0x580720bd30dd650},
	{"distsort zipf", 9131, 5037, 0x28c9dca30c1c7fb6},
	{"sort workers=2 zipf", 5861, 5229, 0x28c9dca30c1c7fb6},
}

package emio

import "fmt"

// Copy streams src into a fresh scratch file and returns it, at a cost of one
// scan: ceil(n/B) reads + ceil(n/B) writes.
func Copy(ctx *Ctx, src *File) (*File, error) {
	dst := ctx.Scratch("copy")
	if err := AppendAll(ctx, dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendAll streams every element of src onto the end of dst.
func AppendAll(ctx *Ctx, dst, src *File) error {
	w, err := NewWriter(ctx, dst)
	if err != nil {
		return err
	}
	defer w.Close()
	r, err := NewReader(ctx, src)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		w.Append(e)
	}
	if err := r.Err(); err != nil {
		return err
	}
	return w.Close()
}

// LoadAll reads an entire file into a memory buffer charged against the
// budget, costing ceil(n/B) reads. The file must fit: callers invoke this
// only on inputs they know are at most M (base cases of recursions).
// Release the buffer with Ctx.FreeElems.
func LoadAll(ctx *Ctx, f *File) ([]Elem, error) {
	n := f.Len()
	buf, err := ctx.AllocElems(int(n))
	if err != nil {
		return nil, err
	}
	r, err := NewReader(ctx, f)
	if err != nil {
		ctx.FreeElems(buf)
		return nil, err
	}
	defer r.Close()
	i := 0
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		buf[i] = e
		i++
	}
	if err := r.Err(); err != nil {
		ctx.FreeElems(buf)
		return nil, err
	}
	if int64(i) != n {
		ctx.FreeElems(buf)
		return nil, fmt.Errorf("emio: LoadAll of %s read %d of %d elements", f.Name(), i, n)
	}
	return buf, nil
}

// StoreAll writes a memory buffer out as a fresh scratch file, costing
// ceil(n/B) writes.
func StoreAll(ctx *Ctx, tag string, elems []Elem) (*File, error) {
	f := ctx.Scratch(tag)
	w, err := NewWriter(ctx, f)
	if err != nil {
		return nil, err
	}
	for _, e := range elems {
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// SplitFile cuts f into consecutive segments of the given sizes (which must
// be nonnegative and sum to f.Len()), each written to its own fresh file, in
// one scan. Because the input is consumed in order, only one output writer is
// open at a time.
func SplitFile(ctx *Ctx, f *File, sizes []int64) ([]*File, error) {
	var sum int64
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("emio: SplitFile negative size %d at %d", s, i)
		}
		sum += s
	}
	if sum != f.Len() {
		return nil, fmt.Errorf("emio: SplitFile sizes sum to %d, file holds %d", sum, f.Len())
	}
	out := make([]*File, len(sizes))
	for i := range out {
		out[i] = ctx.Scratch("seg")
	}
	release := func() {
		for _, g := range out {
			g.Release()
		}
	}
	r, err := NewReader(ctx, f)
	if err != nil {
		release()
		return nil, err
	}
	defer r.Close()
	for i, sz := range sizes {
		if sz == 0 {
			continue
		}
		w, err := NewWriter(ctx, out[i])
		if err != nil {
			release()
			return nil, err
		}
		for j := int64(0); j < sz; j++ {
			e, ok := r.Next()
			if !ok {
				w.Close()
				release()
				if err := r.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("emio: SplitFile input exhausted in segment %d", i)
			}
			w.Append(e)
		}
		if err := w.Close(); err != nil {
			release()
			return nil, err
		}
	}
	return out, nil
}

// Snapshot copies the file's contents into a plain slice without charging
// any I/Os or memory. It exists for test oracles, verifiers and reporting
// harnesses only — algorithm code never calls it, by convention enforced in
// review and by the fact that it defeats the accountant tests would trip.
func (f *File) Snapshot() []Elem {
	out := make([]Elem, 0, f.n)
	it := f.Blocks()
	for it.Next() {
		out = append(out, it.Block()...)
	}
	if err := it.Err(); err != nil {
		panic(fmt.Sprintf("emio: Snapshot of %s: %v", f.name, err))
	}
	return out
}

// BlockIter walks a file's blocks in order without charging I/Os or memory:
// the streaming form of Snapshot, holding one block of host memory whatever
// the file's length. Harness-side only, like Snapshot.
type BlockIter struct {
	f   *File
	i   int
	buf []Elem
	n   int
	err error
}

// Blocks returns an iterator over f's blocks. It panics on a released file.
func (f *File) Blocks() *BlockIter {
	if f.released {
		panic(fmt.Sprintf("emio: reading released file %s", f.name))
	}
	return &BlockIter{f: f, buf: make([]Elem, f.disk.blockSize)}
}

// Next advances to the next block, reporting false at the end of the file
// or on a read error (see Err).
func (it *BlockIter) Next() bool {
	if it.err != nil || it.i >= it.f.nblocks {
		return false
	}
	it.n, it.err = it.f.disk.store.read(it.f, it.i, it.buf)
	if it.err != nil {
		return false
	}
	it.i++
	return true
}

// Block returns the current block's elements, valid until the next call to
// Next.
func (it *BlockIter) Block() []Elem { return it.buf[:it.n] }

// Err returns the read error that stopped the iteration, if any.
func (it *BlockIter) Err() error { return it.err }

// FileBuilder stages a file element by element without charging any I/Os or
// memory, writing each block out as soon as it fills: the streaming form of
// BuildFile, holding one block of host memory whatever the file's length.
// Harness-side only, like BuildFile.
type FileBuilder struct {
	f   *File
	buf []Elem
	err error
}

// NewFileBuilder starts a new file on d.
func NewFileBuilder(d *Disk, name string) *FileBuilder {
	return &FileBuilder{f: d.NewFile(name), buf: make([]Elem, 0, d.blockSize)}
}

// Append adds e to the file. A failed block write is kept for Finish to
// report, and the elements after it are dropped.
func (b *FileBuilder) Append(e Elem) {
	b.buf = append(b.buf, e)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

// Finish writes the last, partial block and returns the file, or the first
// failed block write, in which case the partial file is released. The
// builder must not be used afterwards.
func (b *FileBuilder) Finish() (*File, error) {
	if len(b.buf) > 0 {
		b.flush()
	}
	if b.err != nil {
		b.f.Release()
		return nil, b.err
	}
	return b.f, nil
}

// flush writes the buffered elements as the file's next block.
func (b *FileBuilder) flush() {
	b.writeBlock(b.buf)
	b.buf = b.buf[:0]
}

// writeBlock writes payload as the file's next block, unless a block write
// has already failed.
func (b *FileBuilder) writeBlock(payload []Elem) {
	f, d := b.f, b.f.disk
	if b.err != nil {
		return
	}
	if err := d.store.append(f, payload); err != nil {
		b.err = fmt.Errorf("emio: staging %s: %w", f.name, err)
		return
	}
	if d.checksum {
		f.sums = append(f.sums, checksumElems(payload))
	}
	f.nblocks++
	d.noteAlloc(1)
	// Staged inputs occupy real space but must never be rejected by the
	// quota (the budget bounds the job, admission of its input is the
	// caller's decision), so they are recorded without enforcement.
	d.forceBlocks(1)
	f.n += int64(len(payload))
	if len(payload) < d.blockSize {
		f.sealed = true
	}
}

// BuildFile creates a file holding the given elements without charging any
// I/Os or memory: the harness-side dual of Snapshot, used by workload
// generators and tests to stage inputs. Algorithm code never calls it; a
// failed block write panics.
func BuildFile(d *Disk, name string, elems []Elem) *File {
	b := NewFileBuilder(d, name)
	for len(elems) >= d.blockSize { // whole blocks go out without a copy
		b.writeBlock(elems[:d.blockSize])
		elems = elems[d.blockSize:]
	}
	for _, e := range elems {
		b.Append(e)
	}
	f, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return f
}

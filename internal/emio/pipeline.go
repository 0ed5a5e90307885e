package emio

// The asynchronous prefetch/write-behind pipeline of the file-backed store.
//
// Determinism contract: the EM model, its I/O counters, fault hooks, tracer
// spans and memory accounting all live on the (single) algorithm goroutine —
// AppendBlock/ReadBlock count and fault-check *before* reaching the store,
// and the store's logical state (extents, free lists, the append cursor)
// mutates synchronously at enqueue time. Only physical ReadAt/WriteAt calls
// move to background goroutines. Consequently Stats, trace trees and outputs
// are bit-identical with the pipeline on, off, or under GOMAXPROCS=1.
//
// Write-behind: append encodes the block straight into the tail of a shared
// batch buffer on the algorithm goroutine; when the batch holds QueueDepth
// blocks it is handed to one background worker over a bounded channel
// (backpressure = the small pool of batch buffers). Consecutive appends
// allocate adjacent extents in the common case, so the worker usually retires
// a whole batch with a single large positioned write. Batching on the
// algorithm side is deliberate: it costs one channel operation per batch, not
// per block, which matters on machines where a goroutine handoff is as
// expensive as the syscall it replaces. Physical write failures are recorded
// per file and surface deterministically at the next operation on that file,
// at Writer.Close (which syncs), and at Disk.Close.
//
// Read-ahead: a sequential reader passes a depth hint; the store prefetches
// the next run of up-to-PrefetchDepth *contiguous* blocks with one coalesced
// ReadAt into a pooled staging buffer on a background goroutine, chaining
// the next prefetch while the current staging buffer is being consumed, so
// the disk stays busy while the algorithm computes. Random access simply
// misses the staging window and falls back to direct reads.

import (
	"errors"
	"log/slog"
	"sync"
	"time"
)

// batchOp locates one encoded block inside a writeBatch: nbytes of payload
// bound for backing offset off on behalf of f. Ops are laid out back-to-back
// in the batch buffer in append order.
type batchOp struct {
	f      *File
	off    int64
	nbytes int
}

// writeBatch is the unit handed to the write worker: up to QueueDepth
// encoded blocks in one buffer, with per-block destination records.
type writeBatch struct {
	buf []byte
	ops []batchOp
}

func (b *writeBatch) reset() {
	b.buf = b.buf[:0]
	b.ops = b.ops[:0]
}

// prefetchState is one in-flight (or completed) coalesced read-ahead: blocks
// [from, from+count) of a file, contiguous in the backing file starting at
// startOff, read into buf[:nbytes] by a background goroutine that closes
// done when finished. next chains the following window so consumption and
// prefetch overlap.
type prefetchState struct {
	from, count int
	startOff    int64
	nbytes      int
	buf         []byte
	err         error
	done        chan struct{}
	next        *prefetchState
}

func (ps *prefetchState) covers(i int) bool { return i >= ps.from && i < ps.from+ps.count }

// asyncState holds the concurrent half of a pipelined fileStore. Everything
// outside mu is either owned by the algorithm goroutine, transferred through
// a channel, or synchronized by a done channel.
type asyncState struct {
	wq         chan *writeBatch
	workerDone chan struct{}
	batchPool  chan *writeBatch // recycled batch buffers (bounds in-flight memory)
	batchCap   int              // batch buffer capacity in bytes
	cur        *writeBatch      // batch being filled (algorithm goroutine only)
	stageBufs  chan []byte      // pooled prefetch staging buffers
	stageCap   int              // staging buffer capacity in bytes

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[*File]int // queued-but-unwritten blocks per file
	// Sticky physical write failures, first per file, in failure order.
	// Each is reported exactly once: delivered flips when the error reaches
	// a caller (the next op on the file, Sync, Writer.Close), and
	// stopAsync/Disk.Close surface only the errors nothing else delivered —
	// never a second copy of one already reported.
	errs    []*stickyErr
	fileErr map[*File]*stickyErr

	pf map[*File]*prefetchState // head of each file's read-ahead chain

	// testWriteErr, when set (tests only, before any I/O), injects a failure
	// into the physical write path below the queue.
	testWriteErr func(off int64) error
}

// stickyErr is one recorded asynchronous write failure and whether it has
// been reported to a caller yet. Guarded by asyncState.mu.
type stickyErr struct {
	err       error
	delivered bool
}

// startAsync arms the pipeline: allocates the queues and pools and starts
// the write-behind worker.
func (s *fileStore) startAsync() {
	blockBytes := s.pad(s.size * elemBytes)
	a := &asyncState{
		wq:         make(chan *writeBatch, 1),
		workerDone: make(chan struct{}),
		batchPool:  make(chan *writeBatch, 3),
		batchCap:   s.pipe.QueueDepth * blockBytes,
		stageBufs:  make(chan []byte, 3),
		stageCap:   s.pipe.PrefetchDepth * blockBytes,
		pending:    make(map[*File]int),
		fileErr:    make(map[*File]*stickyErr),
		pf:         make(map[*File]*prefetchState),
	}
	a.cond = sync.NewCond(&a.mu)
	s.async = a
	go s.writeWorker()
}

// stopAsync drains and joins the worker and all in-flight prefetches,
// returning the first physical write failure that no earlier operation
// (next-op check, Sync, Writer.Close) already reported. Errors delivered
// once are not re-reported here, so a failure surfaced at Writer.Close does
// not come back as a second distinct error at Disk.Close.
func (s *fileStore) stopAsync() error {
	a := s.async
	s.flushCur()
	close(a.wq)
	<-a.workerDone
	for f := range a.pf {
		s.dropPrefetch(f)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, se := range a.errs {
		if !se.delivered {
			se.delivered = true
			if d := s.disk; d != nil {
				d.log(slog.LevelError, "unreported write-behind failure surfaced at close")
			}
			return se.err
		}
	}
	return nil
}

// --- buffer pools ---------------------------------------------------------

func (s *fileStore) getBatch() *writeBatch {
	a := s.async
	select {
	case b := <-a.batchPool:
		return b
	default:
		return &writeBatch{
			buf: alignedBytes(a.batchCap, s.direct)[:0],
			ops: make([]batchOp, 0, s.pipe.QueueDepth),
		}
	}
}

func (s *fileStore) putBatch(b *writeBatch) {
	b.reset()
	select {
	case s.async.batchPool <- b:
	default:
	}
}

func (s *fileStore) getStageBuf() []byte {
	select {
	case b := <-s.async.stageBufs:
		return b
	default:
		return alignedBytes(s.async.stageCap, s.direct)
	}
}

func (s *fileStore) putStageBuf(b []byte) {
	b = b[:cap(b)]
	select {
	case s.async.stageBufs <- b:
	default:
	}
}

// --- write-behind ---------------------------------------------------------

// stageWrite encodes payload for backing offset off into the tail of the
// current batch on the algorithm goroutine, registering the block as pending,
// and hands the batch to the worker once it holds QueueDepth blocks.
func (s *fileStore) stageWrite(f *File, payload []Elem, off int64) {
	a := s.async
	b := a.cur
	if b == nil {
		b = s.getBatch()
		a.cur = b
	}
	nbytes := len(payload) * elemBytes
	pn := s.pad(nbytes)
	start := len(b.buf)
	b.buf = b.buf[:start+pn]
	encodeElems(b.buf[start:start+nbytes], payload, s.bulk)
	clear(b.buf[start+nbytes : start+pn])
	b.ops = append(b.ops, batchOp{f: f, off: off, nbytes: pn})
	a.mu.Lock()
	a.pending[f]++
	a.mu.Unlock()
	if sm := s.sm.Load(); sm != nil {
		sm.queueDepth.Add(1)
	}
	if len(b.ops) >= s.pipe.QueueDepth {
		s.flushCur()
	}
}

// flushCur hands the in-progress batch to the worker, blocking only when the
// worker is behind by a full queue (backpressure).
func (s *fileStore) flushCur() {
	a := s.async
	if a.cur == nil || len(a.cur.ops) == 0 {
		return
	}
	b := a.cur
	a.cur = nil
	a.wq <- b
}

// writeWorker is the single background writer: it retires each batch by
// coalescing runs of offset-adjacent blocks into one positioned write each.
func (s *fileStore) writeWorker() {
	a := s.async
	defer close(a.workerDone)
	for b := range a.wq {
		s.flushBatch(b)
		s.putBatch(b)
	}
}

// flushBatch writes one batch. The blocks sit back-to-back in b.buf in
// append order and their extents are consecutive in the common case, so a
// batch is typically a single large write instead of QueueDepth small ones;
// free-list seams split it into a few runs at worst.
func (s *fileStore) flushBatch(b *writeBatch) {
	pos := 0
	for start := 0; start < len(b.ops); {
		end := start + 1
		nb := b.ops[start].nbytes
		for end < len(b.ops) && b.ops[end].off == b.ops[start].off+int64(nb) {
			nb += b.ops[end].nbytes
			end++
		}
		err := s.physWrite(b.ops[start].f.name, b.buf[pos:pos+nb], b.ops[start].off)
		if sm := s.sm.Load(); sm != nil && err == nil {
			sm.writeRunBlocks.Observe(int64(end - start))
		}
		s.completeOps(b.ops[start:end], err)
		pos += nb
		start = end
	}
}

// completeOps retires written (or failed) ops: records errors, decrements
// pending counts and wakes waiters. A failure is wrapped per op, naming the
// file and its backing offset, so a sticky error surfacing much later — at
// the next operation, Writer.Close or Disk.Close — still identifies exactly
// which write was lost.
func (s *fileStore) completeOps(ops []batchOp, err error) {
	a := s.async
	a.mu.Lock()
	for _, op := range ops {
		if err != nil {
			if a.fileErr[op.f] == nil {
				se := &stickyErr{err: storeWriteError(s.disk, op.f.name, op.off, err)}
				if errors.Is(err, ErrCancelled) {
					// A write abandoned because the job was cancelled is an
					// expected teardown outcome, not a lost-data signal: keep
					// it sticky so the next operation on the file fails fast,
					// but never resurface it at Disk.Close after the job has
					// already reported the cancellation.
					se.delivered = true
				}
				a.fileErr[op.f] = se
				a.errs = append(a.errs, se)
				if d := s.disk; d != nil {
					d.log(slog.LevelError, "write-behind failure recorded",
						slog.String("file", op.f.name), slog.Int64("off", op.off))
				}
			}
		}
		a.pending[op.f]--
		if a.pending[op.f] == 0 {
			delete(a.pending, op.f)
		}
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	if sm := s.sm.Load(); sm != nil {
		sm.queueDepth.Add(-int64(len(ops)))
	}
}

// drainFile blocks until every pending write of f has completed and returns
// f's sticky physical write error, if any. Called on the algorithm
// goroutine, so it must push the in-progress batch first — some of f's
// pending blocks may still be sitting in it.
func (s *fileStore) drainFile(f *File) error {
	a := s.async
	a.mu.Lock()
	if a.pending[f] > 0 {
		a.mu.Unlock()
		s.flushCur()
		a.mu.Lock()
		for a.pending[f] > 0 {
			a.cond.Wait()
		}
	}
	err := deliverLocked(a.fileErr[f])
	a.mu.Unlock()
	return err
}

// deliverLocked marks a sticky error as reported and returns it (nil-safe).
// Callers hold asyncState.mu.
func deliverLocked(se *stickyErr) error {
	if se == nil {
		return nil
	}
	se.delivered = true
	return se.err
}

// drainFileQuiet waits out f's pending writes and detaches its error state
// from the per-file map: the release path, where the file is going away
// regardless. An error nobody reported yet stays queued for Disk.Close — a
// lost write still signals device trouble even if its file was discarded.
func (s *fileStore) drainFileQuiet(f *File) {
	a := s.async
	a.mu.Lock()
	if a.pending[f] > 0 {
		a.mu.Unlock()
		s.flushCur()
		a.mu.Lock()
		for a.pending[f] > 0 {
			a.cond.Wait()
		}
	}
	delete(a.fileErr, f)
	a.mu.Unlock()
}

// fileError returns f's sticky physical write error without waiting.
func (s *fileStore) fileError(f *File) error {
	a := s.async
	a.mu.Lock()
	err := deliverLocked(a.fileErr[f])
	a.mu.Unlock()
	return err
}

// --- read-ahead -----------------------------------------------------------

// pipelineRead serves block i of f (len(dst) = its element count), using the
// file's read-ahead chain when it covers the block and falling back to a
// direct positioned read otherwise. ahead > 0 is the sequential-intent hint
// that keeps the chain primed. Called only after drainFile(f), so no write
// to f is in flight.
func (s *fileStore) pipelineRead(f *File, i int, dst []Elem, ahead int) (int, error) {
	a := s.async
	// Advance the chain past fully consumed windows; discard it entirely on
	// a non-sequential access (the staging window no longer matches).
	for {
		ps := a.pf[f]
		if ps == nil || ps.covers(i) {
			break
		}
		if i >= ps.from+ps.count && ps.next != nil {
			<-ps.done
			s.putStageBuf(ps.buf)
			a.pf[f] = ps.next
			continue
		}
		s.dropPrefetch(f)
		break
	}
	if ps := a.pf[f]; ps != nil && ps.covers(i) {
		<-ps.done
		if ps.err == nil {
			if sm := s.sm.Load(); sm != nil {
				sm.prefetchHits.Inc()
			}
			off := int(f.extents[i] - ps.startOff)
			decodeElems(dst, ps.buf[off:off+len(dst)*elemBytes], s.bulk)
			if ahead > 0 && ps.next == nil {
				ps.next = s.startPrefetch(f, ps.from+ps.count, ahead)
			}
			if i == ps.from+ps.count-1 {
				s.putStageBuf(ps.buf)
				if ps.next != nil {
					a.pf[f] = ps.next
				} else {
					delete(a.pf, f)
				}
			}
			return len(dst), nil
		}
		// Prefetch failed: drop the chain and retry the block directly so a
		// transient staging failure reports exactly like a synchronous one.
		s.dropPrefetch(f)
	}
	sm := s.sm.Load()
	if sm != nil {
		sm.prefetchMisses.Inc()
	}
	raw := s.scratch[:s.pad(len(dst)*elemBytes)]
	s.physR.Add(1)
	var t0 time.Time
	if sm != nil {
		t0 = time.Now()
	}
	err := s.readAtPhys(f.name, raw, f.extents[i])
	if sm != nil {
		sm.physReads.Inc()
		sm.physReadNS.ObserveEx(int64(time.Since(t0)), sm.seq.Load())
	}
	if err != nil {
		return 0, storeReadError(f.name, f.extents[i], err)
	}
	decodeElems(dst, raw[:len(dst)*elemBytes], s.bulk)
	if ahead > 0 && a.pf[f] == nil {
		if ps := s.startPrefetch(f, i+1, ahead); ps != nil {
			a.pf[f] = ps
		}
	}
	return len(dst), nil
}

// startPrefetch begins an asynchronous coalesced read of up to maxBlocks
// contiguous blocks of f starting at block from, returning nil when there is
// nothing (contiguous) to prefetch. All file metadata is captured before the
// goroutine starts; the goroutine touches only the fd and the staging
// buffer.
func (s *fileStore) startPrefetch(f *File, from, maxBlocks int) *prefetchState {
	if from >= f.nblocks {
		return nil
	}
	startOff := f.extents[from]
	count, nbytes := 0, 0
	for from+count < f.nblocks && count < maxBlocks {
		i := from + count
		bl := s.extentBytes(f, i)
		if nbytes+bl > s.async.stageCap || f.extents[i] != startOff+int64(nbytes) {
			break
		}
		nbytes += bl
		count++
	}
	// A window needs at least two blocks to be worth a goroutine: on files
	// with strided extents (e.g. round-robin scatter output) nothing is
	// contiguous, and a one-block async read costs more in handoff than the
	// syscall it hides.
	if count < 2 {
		return nil
	}
	ps := &prefetchState{
		from:     from,
		count:    count,
		startOff: startOff,
		nbytes:   nbytes,
		buf:      s.getStageBuf(),
		done:     make(chan struct{}),
	}
	go func() {
		s.physR.Add(1)
		sm := s.sm.Load()
		var t0 time.Time
		if sm != nil {
			t0 = time.Now()
		}
		err := s.readAtPhys(f.name, ps.buf[:ps.nbytes], ps.startOff)
		if sm != nil {
			sm.prefReads.Inc()
			sm.prefReadNS.ObserveEx(int64(time.Since(t0)), sm.seq.Load())
			if err == nil {
				sm.readRunBlocks.Observe(int64(ps.count))
			}
		}
		ps.err = err
		close(ps.done)
	}()
	return ps
}

// dropPrefetch waits out and recycles every window of f's read-ahead chain.
func (s *fileStore) dropPrefetch(f *File) {
	for ps := s.async.pf[f]; ps != nil; ps = ps.next {
		<-ps.done
		s.putStageBuf(ps.buf)
	}
	delete(s.async.pf, f)
}

package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/obs"
)

// Reader is an io.Reader serving the decompressed expansion of either a
// framed stream or a bare container (decompressed whole).
//
// Framed streams decode through a bounded concurrent pipeline, the mirror
// image of the Writer's: a prefetcher goroutine pulls records off the
// format.FrameReader (the sole owner of the frame/salvage/repair state), a
// pool of HostWorkers decode workers decompresses segment containers
// concurrently, and delivery — the Read side — replays the prefetcher's
// in-order event queue, so plaintext order, corruption and repair records,
// and every callback are identical to a serial decode no matter how decode
// completions interleave. Peak decoded-segment memory is bounded by
// MaxInFlight segments (plus the one being served); Prefetch bounds how
// far the prefetcher reads ahead of delivery.
type Reader struct {
	params Params
	opts   ReaderOptions
	ctx    context.Context
	met    readerMetrics

	// Legacy single-container mode.
	legacy *bytes.Reader

	// Framed mode. The pipeline starts lazily at the first Read; until
	// then a Reader costs no goroutines.
	fr       *format.FrameReader
	workers  int // decode worker-pool size
	inner    int // per-segment inner decode parallelism
	bound    int // admission bound: segments decoded or decoding at once
	prefetch int // event-queue capacity: records read ahead of delivery

	started bool
	closed  bool
	events  chan *readEvent // in-order record queue, prefetcher -> delivery
	jobs    chan *readEvent // decode-job feed, prefetcher -> workers
	tokens  chan struct{}   // admission semaphore, capacity bound
	pctx    context.Context
	pcancel context.CancelFunc
	wg      sync.WaitGroup // prefetcher + workers

	contPool  *bytePool // frame container buffers (fed to fr.Lease)
	plainPool *bytePool // decoded segment buffers

	cur    []byte // decoded bytes of the current segment not yet consumed
	curBuf []byte // cur's pool-owned backing buffer, recycled once drained
	crc    uint32 // running CRC-32 of the plaintext served so far
	served int
	done   bool
	err    error

	// mu guards the record lists, stats, and in-flight accounting against
	// concurrent scrapes: Stats, CorruptSegments, and RepairedSegments
	// are safe to call while Read runs.
	mu       sync.Mutex
	corrupt  []*format.CorruptSegmentError
	repaired []*format.RepairedSegmentError
	stats    ReaderStats
	inflight int
}

// readEvent is one in-order record from the prefetcher; exactly one of
// frame, trailer, cse, rse, or err is set. Frame events double as decode
// jobs: a worker fills plain/rep/derr and closes done.
type readEvent struct {
	frame   *format.SegmentFrame
	trailer *format.StreamTrailer
	cse     *format.CorruptSegmentError
	rse     *format.RepairedSegmentError
	err     error

	done  chan struct{}
	plain []byte
	buf   []byte // plain's pool-owned backing buffer; nil if not pooled
	rep   *gpu.Report
	derr  error
}

// ErrContainerTooLarge reports a bare (non-framed) input longer than
// ReaderOptions.MaxContainerLen.
var ErrContainerTooLarge = errors.New("core: bare container too large")

// ErrReaderClosed is returned by Read after Close interrupted a framed
// stream mid-decode.
var ErrReaderClosed = errors.New("core: reader is closed")

// NewReader sniffs src and returns a Reader over the plaintext. Framed
// streams decode lazily: NewReader itself reads only the stream header, so
// a pipe that has produced only its first frames is readable immediately.
func NewReader(src io.Reader, p Params) (*Reader, error) {
	return NewReaderOptions(src, p, ReaderOptions{})
}

// NewReaderOptions is NewReader with explicit decode options.
func NewReaderOptions(src io.Reader, p Params, o ReaderOptions) (*Reader, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	br := bufio.NewReader(src)
	magic, err := br.Peek(len(format.StreamMagic))
	if err == nil && string(magic) == format.StreamMagic {
		var fr *format.FrameReader
		var ferr error
		if o.Salvage || o.Repair {
			fr, ferr = format.NewFrameReaderSalvage(br)
		} else {
			fr, ferr = format.NewFrameReader(br)
		}
		if ferr != nil {
			return nil, ferr
		}
		fr.Obs = p.Obs
		if o.Repair {
			o.Salvage = true
			fr.EnableRepair()
		}
		r := &Reader{params: p, opts: o, ctx: ctx, fr: fr, met: newReaderMetrics(p.Obs)}
		r.workers, r.bound, r.prefetch = o.resolve(p)
		r.inner = 1
		if r.workers == 1 {
			// A serial pipeline keeps the pre-pipeline behaviour: the one
			// decode at a time may use inner chunk parallelism.
			r.inner = p.HostWorkers
		}
		r.contPool = newBytePool(p.Obs, "reader-container")
		r.plainPool = newBytePool(p.Obs, "reader-plain")
		fr.Lease = func(n int) []byte { return r.contPool.get(n) }
		return r, nil
	}
	// Bare container (or too short / not ours — let Decompress produce
	// the diagnostic). MaxContainerLen bounds the buffering so an endless
	// input fails typed instead of exhausting memory.
	limit := o.MaxContainerLen
	if limit == 0 {
		limit = DefaultMaxContainerLen
	}
	var container []byte
	if limit < 0 {
		container, err = io.ReadAll(br)
	} else {
		container, err = io.ReadAll(io.LimitReader(br, limit+1))
		if err == nil && int64(len(container)) > limit {
			err = fmt.Errorf("%w: input exceeds %d bytes (raise ReaderOptions.MaxContainerLen)",
				ErrContainerTooLarge, limit)
		}
	}
	if err != nil {
		return nil, err
	}
	out, err := Decompress(container, p)
	if err != nil {
		return nil, err
	}
	return &Reader{params: p, opts: o, ctx: ctx, legacy: bytes.NewReader(out)}, nil
}

// CorruptSegments returns the damaged regions recorded so far (salvage
// mode). A synthetic entry with Index == -1 marks a stream that ended
// without its trailer (truncated tail). The returned slice is a copy and
// grows as Read progresses; it is complete once Read has returned io.EOF.
// Safe to call concurrently with Read.
func (r *Reader) CorruptSegments() []*format.CorruptSegmentError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*format.CorruptSegmentError(nil), r.corrupt...)
}

// RepairedSegments returns the healed regions recorded so far (repair
// mode): damage that parity reconstruction fully reversed, whose
// segments were served bit-identical to the originals. The returned
// slice is a copy and grows as Read progresses; it is complete once Read
// has returned io.EOF. Safe to call concurrently with Read.
func (r *Reader) RepairedSegments() []*format.RepairedSegmentError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*format.RepairedSegmentError(nil), r.repaired...)
}

// Stats returns a snapshot of the Reader's decode-pipeline activity,
// safe to take concurrently with Read. For a legacy bare-container
// Reader every field is zero.
func (r *Reader) Stats() ReaderStats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	if r.contPool != nil {
		ch, cm := r.contPool.counts()
		ph, pm := r.plainPool.counts()
		st.PoolHits, st.PoolMisses = ch+ph, cm+pm
	}
	return st
}

// ctxErr reports the Reader context's error, if it is done.
func (r *Reader) ctxErr() error {
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if err := r.ctxErr(); err != nil {
		return 0, err
	}
	if r.legacy != nil {
		return r.legacy.Read(p)
	}
	if r.err != nil {
		return 0, r.err
	}
	r.startPipeline()
	for len(r.cur) == 0 {
		if r.curBuf != nil {
			r.plainPool.put(r.curBuf)
			r.cur, r.curBuf = nil, nil
		}
		if r.done {
			return 0, io.EOF
		}
		if err := r.nextEvent(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	if len(r.cur) == 0 && r.curBuf != nil {
		r.plainPool.put(r.curBuf)
		r.cur, r.curBuf = nil, nil
	}
	return n, nil
}

// startPipeline lazily spins up the decode pipeline on the first Read,
// so a Reader that is constructed but never read costs no goroutines.
func (r *Reader) startPipeline() {
	if r.started {
		return
	}
	r.started = true
	r.pctx, r.pcancel = context.WithCancel(r.ctx)
	r.events = make(chan *readEvent, r.prefetch)
	// jobs can hold every admitted job (admission is bounded by tokens),
	// so once an event is queued the prefetcher's job send cannot block —
	// mirroring the Writer's jobs/pending pair.
	r.jobs = make(chan *readEvent, r.bound)
	r.tokens = make(chan struct{}, r.bound)
	r.wg.Add(1 + r.workers)
	go r.prefetcher()
	for i := 0; i < r.workers; i++ {
		go r.decodeWorker()
	}
}

// prefetcher is the sole owner of the FrameReader: it converts the
// frame/salvage/repair record stream into the in-order event queue,
// dispatching segment frames to the decode workers. Stream order is
// fixed here, before any concurrency; delivery replays the queue.
func (r *Reader) prefetcher() {
	defer r.wg.Done()
	defer close(r.jobs)
	defer close(r.events)
	for seq := 0; ; seq++ {
		var sp *obs.ActiveSpan
		if r.met.tracer != nil {
			sp = r.met.tracer.Start(fmt.Sprintf("record %d", seq), "frame-read")
		}
		frame, trailer, err := r.fr.Next()
		sp.End(err)
		ev := &readEvent{}
		terminal := false
		switch {
		case err != nil:
			salvaged := false
			if r.opts.Salvage {
				// A RepairedSegmentError may wrap the parse failure that
				// revealed the damage, so match it before the corrupt
				// case. Both are non-sticky: the next record follows.
				var rse *format.RepairedSegmentError
				var cse *format.CorruptSegmentError
				if errors.As(err, &rse) {
					ev.rse, salvaged = rse, true
				} else if errors.As(err, &cse) {
					ev.cse, salvaged = cse, true
				}
			}
			if !salvaged {
				ev.err = err
				terminal = true
			}
		case trailer != nil:
			ev.trailer = trailer
			terminal = true
		default:
			ev.frame = frame
			ev.done = make(chan struct{})
			// Admission: acquire an in-flight token before the event is
			// queued, so the head of the queue is always a job the
			// workers will run — delivery never waits on an unadmitted
			// decode.
			select {
			case r.tokens <- struct{}{}:
			case <-r.pctx.Done():
				return
			}
			r.noteAdmit()
		}
		select {
		case r.events <- ev:
		case <-r.pctx.Done():
			return
		}
		if ev.frame != nil {
			r.jobs <- ev
		}
		if terminal {
			return
		}
	}
}

// decodeWorker drains the job feed until it closes or the pipeline is
// cancelled.
func (r *Reader) decodeWorker() {
	defer r.wg.Done()
	for ev := range r.jobs {
		r.decodeOne(ev)
	}
}

// decodeOne decompresses one segment container into a pooled buffer and
// publishes the result on the event.
func (r *Reader) decodeOne(ev *readEvent) {
	defer close(ev.done)
	if err := r.pctx.Err(); err != nil {
		ev.derr = err
		return
	}
	var sp *obs.ActiveSpan
	if r.met.tracer != nil {
		sp = r.met.tracer.Start(fmt.Sprintf("segment %d", ev.frame.Index), "decode")
	}
	leased := r.plainPool.get(ev.frame.RawLen)
	plain, rep, err := decompressInto(leased, ev.frame.Container, r.params, r.pctx, r.inner, ev.frame.RawLen)
	sp.End(err)
	r.contPool.put(ev.frame.Container)
	ev.frame.Container = nil
	if err != nil {
		r.plainPool.put(leased)
		ev.derr = err
		return
	}
	if aliases(plain, leased) {
		ev.buf = leased
	} else {
		// The codec allocated its own output (CPU paths); recycle the
		// lease.
		r.plainPool.put(leased)
	}
	ev.plain = plain
	ev.rep = rep
}

// aliases reports whether the decoded output landed inside the leased
// buffer, as opposed to a fresh or codec-internal allocation.
func aliases(plain, leased []byte) bool {
	return cap(plain) > 0 && cap(leased) > 0 && &plain[:1][0] == &leased[:1][0]
}

// nextEvent consumes in-order events until one yields plaintext, the
// trailer, or an error — the concurrent mirror of the serial reader's
// nextSegment loop. All bookkeeping (records, callbacks, CRC, totals)
// happens here, on the Read side, in queue order.
func (r *Reader) nextEvent() error {
	for {
		if err := r.ctxErr(); err != nil {
			return err
		}
		ev, ok := <-r.events
		if !ok {
			// The pipeline stopped without a terminal record: the Reader
			// was closed (or its context cancelled) mid-stream.
			if err := r.ctxErr(); err != nil {
				return err
			}
			return ErrReaderClosed
		}
		switch {
		case ev.rse != nil:
			r.recordRepaired(ev.rse)
		case ev.cse != nil:
			r.recordCorrupt(ev.cse)
		case ev.err != nil:
			r.finish()
			if r.opts.Salvage && errors.Is(ev.err, format.ErrTruncated) {
				// The stream ended without its trailer. Deliver what we
				// have; the truncation is recorded for the caller.
				r.recordCorrupt(&format.CorruptSegmentError{Index: -1, Err: format.ErrTruncated})
				r.done = true
				return nil
			}
			return ev.err
		case ev.trailer != nil:
			r.finish()
			if r.corruptCount() == 0 {
				if ev.trailer.TotalLen != r.served {
					return fmt.Errorf("%w: trailer says %d plaintext bytes, decoded %d",
						format.ErrCorrupt, ev.trailer.TotalLen, r.served)
				}
				if ev.trailer.Checksum != r.crc {
					return fmt.Errorf("%w: stream trailer", format.ErrChecksum)
				}
			}
			// With recorded corruption the end-to-end totals cannot match;
			// the delivered segments were each CRC-verified individually.
			r.done = true
			return nil
		default:
			delivered, err := r.deliverFrame(ev)
			if err != nil {
				return err
			}
			if delivered {
				return nil
			}
		}
	}
}

// deliverFrame waits for one frame event's decode and applies the serial
// reader's delivery rules. It reports whether plaintext was delivered
// into r.cur (false: the segment was recorded corrupt and skipped,
// salvage mode only).
func (r *Reader) deliverFrame(ev *readEvent) (bool, error) {
	select {
	case <-ev.done:
	case <-r.ctx.Done():
		return false, r.ctx.Err()
	}
	r.noteRetire()
	frame := ev.frame
	if ev.derr != nil {
		if errors.Is(ev.derr, context.Canceled) || errors.Is(ev.derr, context.DeadlineExceeded) {
			// Pipeline shutdown cut this decode short: cancellation, not
			// data corruption — never a salvage record.
			if err := r.ctxErr(); err != nil {
				return false, err
			}
			return false, ev.derr
		}
		if r.opts.Salvage {
			// The frame CRC held but the container inside is broken (for
			// example a frame-header bit-flip mislabelled an intact
			// container). Skip just this segment.
			r.recordCorrupt(&format.CorruptSegmentError{Index: frame.Index, Err: ev.derr})
			return false, nil
		}
		return false, fmt.Errorf("core: segment %d: %w", frame.Index, ev.derr)
	}
	if len(ev.plain) != frame.RawLen {
		r.plainPool.put(ev.buf)
		err := fmt.Errorf("%w: segment %d decoded to %d bytes, frame says %d",
			format.ErrCorrupt, frame.Index, len(ev.plain), frame.RawLen)
		if r.opts.Salvage {
			r.recordCorrupt(&format.CorruptSegmentError{Index: frame.Index, Err: err})
			return false, nil
		}
		return false, err
	}
	r.crc = format.Checksum32Update(r.crc, ev.plain)
	r.served += len(ev.plain)
	r.cur = ev.plain
	r.curBuf = ev.buf
	r.met.segments.Inc()
	r.met.bytesOut.Add(int64(len(ev.plain)))
	r.mu.Lock()
	r.stats.Segments++
	r.stats.Bytes += len(ev.plain)
	r.mu.Unlock()
	if r.opts.OnSegment != nil {
		r.opts.OnSegment(frame.Index, frame.RawLen, ev.rep)
	}
	return true, nil
}

// recordCorrupt appends one damaged region and fires the callback.
func (r *Reader) recordCorrupt(cse *format.CorruptSegmentError) {
	r.met.corrupt.Inc()
	r.mu.Lock()
	r.corrupt = append(r.corrupt, cse)
	r.stats.Corrupt = len(r.corrupt)
	r.mu.Unlock()
	if r.opts.OnCorrupt != nil {
		r.opts.OnCorrupt(cse)
	}
}

// recordRepaired appends one healed region and fires the callback.
func (r *Reader) recordRepaired(rse *format.RepairedSegmentError) {
	r.mu.Lock()
	r.repaired = append(r.repaired, rse)
	r.stats.Repaired = len(r.repaired)
	r.mu.Unlock()
	if r.opts.OnRepair != nil {
		r.opts.OnRepair(rse)
	}
}

func (r *Reader) corruptCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.corrupt)
}

// noteAdmit accounts one segment entering the pipeline (prefetcher side:
// called with the admission token held).
func (r *Reader) noteAdmit() {
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.stats.MaxInFlight {
		r.stats.MaxInFlight = r.inflight
	}
	r.mu.Unlock()
	r.met.inflight.Inc()
}

// noteRetire accounts one segment leaving the pipeline at delivery and
// releases its admission token.
func (r *Reader) noteRetire() {
	r.mu.Lock()
	r.inflight--
	r.mu.Unlock()
	r.met.inflight.Dec()
	<-r.tokens
}

// finish tears the pipeline down after a terminal record: the prefetcher
// has already stopped; cancellation unblocks anything else and the
// goroutines are joined.
func (r *Reader) finish() {
	if r.pcancel != nil {
		r.pcancel()
	}
	r.wg.Wait()
}

// Close releases the decode pipeline without reading to EOF: in-flight
// decodes are cancelled and every pipeline goroutine is joined. It never
// closes the underlying source. Close is idempotent, and a Reader that
// reaches io.EOF (or a terminal error) tears its pipeline down on its
// own — Close is for abandoning a framed stream midway, after which Read
// returns ErrReaderClosed.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.legacy != nil || !r.started {
		return nil
	}
	r.pcancel()
	r.wg.Wait()
	for range r.events {
		// Drain whatever the prefetcher had queued so nothing pins the
		// pooled buffers; the pool references die with the Reader.
	}
	if r.err == nil && !r.done {
		r.err = ErrReaderClosed
	}
	return nil
}

// Len reports the plaintext bytes currently buffered and undelivered. For
// a bare container that is the whole remainder; for a framed stream it is
// the unread tail of the current segment (the stream's total length is
// only known at the trailer).
func (r *Reader) Len() int {
	if r.legacy != nil {
		return r.legacy.Len()
	}
	return len(r.cur)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"culzss/internal/codec"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// ErrClosed is returned by Writer.Write after Close.
var ErrClosed = errors.New("core: writer is closed")

// segJob is one segment travelling through the Writer's pipeline.
type segJob struct {
	index  int
	data   []byte // uncompressed segment (buf-pool owned)
	result chan segResult
}

type segResult struct {
	container []byte
	codec     format.Codec // the engine that produced the container
	rep       *gpu.Report  // device report; nil for host-encoded segments
	retries   int          // extra GPU attempts this segment consumed
	degraded  bool         // segment fell back to the engine's CPU twin
	err       error
}

// Writer is an io.WriteCloser emitting a framed compressed stream.
//
// Segments are compressed concurrently by HostWorkers workers while a
// single emitter goroutine writes frames strictly in order, so the output
// is deterministic for a given input and parameter set. Write blocks when
// HostWorkers segments are already in flight, which is what bounds peak
// memory.
//
// The Writer issues exactly one dst.Write per record: the stream header,
// each segment frame, each parity frame and the trailer. A destination
// may rely on that — the durable layer parses every call as one whole
// record to place its commit points.
//
// Close flushes the final partial segment, writes the stream trailer, and
// tears the worker pool down. A second Close is a no-op returning nil
// (matching gzip.Writer); Write after Close returns ErrClosed.
type Writer struct {
	dst     io.Writer
	params  Params
	opts    StreamOptions
	segSize int
	workers int
	bound   int // admission bound: max segments in the pipeline
	ctx     context.Context

	// healthBase is the supervisor's counter baseline at construction;
	// Stats reports deltas against it (the pool is often shared).
	healthBase health.Snapshot

	met      writerMetrics
	segStart time.Time // when the current partial segment began accumulating

	started bool
	closed  bool
	buf     []byte // current partial segment; len < segSize
	index   int    // next segment index
	total   int    // total plaintext bytes accepted
	crc     uint32 // running CRC-32 of the plaintext

	// Parity accumulator (emitter goroutine only, after construction):
	// the exact encoded bytes of the open group's data frames, and the
	// index of the group's first frame.
	parityGroup [][]byte
	parityFirst int

	jobs     chan *segJob // feeds the compression workers
	pending  chan *segJob // feeds the in-order emitter; its capacity is the memory bound
	emitted  chan struct{}
	workerWG sync.WaitGroup
	bufPool  *bytePool

	mu   sync.Mutex
	werr error // first pipeline error (compression or underlying write)

	statsMu sync.Mutex // serialises merges into params.Stats

	wstatsMu sync.Mutex
	wstats   WriterStats

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; seeded from the injector when armed

	// in-flight accounting, exercised by the bounded-memory test.
	flightMu  sync.Mutex
	inFlight  int // bytes of segment buffers currently in the pipeline
	maxFlight int
}

// NewWriter returns a framed-stream Writer with default StreamOptions
// (1 MiB segments).
func NewWriter(dst io.Writer, p Params) *Writer {
	return NewWriterOptions(dst, p, StreamOptions{})
}

// NewWriterOptions returns a framed-stream Writer with explicit stream
// options.
func NewWriterOptions(dst io.Writer, p Params, o StreamOptions) *Writer {
	workers := p.HostWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Jitter only perturbs sleep durations, never output bytes; seeding
	// from the injector keeps even the timing reproducible under test.
	seed := int64(1)
	if s := p.Injector.Seed(); s != 0 {
		seed = s
	}
	bound := o.MaxInFlight
	if bound <= 0 {
		bound = workers
	}
	if workers > bound {
		workers = bound // no point in more workers than admitted segments
	}
	w := &Writer{
		dst:     dst,
		params:  p,
		opts:    o,
		segSize: o.segmentSize(),
		workers: workers,
		bound:   bound,
		ctx:     ctx,
		rng:     rand.New(rand.NewSource(seed)),
		met:     newWriterMetrics(p.Obs),
	}
	if p.Health != nil {
		w.healthBase = p.Health.Snapshot()
	}
	if err := o.Parity.validate(); err != nil {
		w.setErr(err)
	}
	if o.Codec == "" {
		w.opts.Codec = codec.Auto
	} else if o.Codec != codec.Auto {
		if _, ok := codec.ByName(o.Codec); !ok {
			w.setErr(fmt.Errorf("core: unknown codec %q (registered: %v, or %q)",
				o.Codec, codec.Names(), codec.Auto))
		}
	}
	if r := o.Resume; r != nil {
		w.index = r.NextIndex
		w.total = r.Total
		w.crc = r.CRC
		w.wstats.Resumed = r.NextIndex
		if o.Parity.K > 0 {
			w.parityGroup = append([][]byte(nil), r.GroupFrames...)
			w.parityFirst = r.NextIndex - len(r.GroupFrames)
			if w.parityFirst < 0 {
				w.setErr(fmt.Errorf("core: resume carries %d group frames but only %d segments precede it",
					len(r.GroupFrames), r.NextIndex))
			}
		}
	}
	w.bufPool = newBytePool(p.Obs, "writer-segment")
	return w
}

// Stats returns a snapshot of the Writer's retry/degrade counters, plus
// the supervisor's device-pool counters (as deltas over this Writer's
// lifetime) when Params.Health is armed. It is safe to call concurrently
// with Write and after Close.
func (w *Writer) Stats() WriterStats {
	w.wstatsMu.Lock()
	st := w.wstats
	w.wstatsMu.Unlock()
	if sup := w.params.Health; sup != nil {
		snap := sup.Snapshot()
		st.TimedOut = snap.TimedOut - w.healthBase.TimedOut
		st.Redispatched = snap.Redispatched - w.healthBase.Redispatched
		st.BreakerOpens = snap.BreakerOpens - w.healthBase.BreakerOpens
		st.Quarantined = snap.Quarantined
	}
	return st
}

// ctxErr reports the Writer context's error, if it is done.
func (w *Writer) ctxErr() error {
	select {
	case <-w.ctx.Done():
		return w.ctx.Err()
	default:
		return nil
	}
}

// start lazily writes the stream header and spins up the pipeline.
func (w *Writer) start() {
	if w.started {
		return
	}
	w.started = true
	// A resumed stream already carries its header; emitting another would
	// corrupt it mid-stream.
	if w.opts.Resume == nil {
		if _, err := format.WriteStreamHeader(w.dst, w.segSize); err != nil {
			w.setErr(fmt.Errorf("core: writing stream header: %w", err))
		}
	}
	// pending's capacity is the admission bound (StreamOptions.MaxInFlight,
	// default HostWorkers): at most cap(pending)+1 segments exist
	// concurrently (one being handed over in flush) — the memory bound.
	w.pending = make(chan *segJob, w.bound)
	// jobs can hold every in-flight job, so sending to it never blocks
	// once the pending send has succeeded.
	w.jobs = make(chan *segJob, w.bound+1)
	w.emitted = make(chan struct{})
	for i := 0; i < w.workers; i++ {
		w.workerWG.Add(1)
		go w.worker()
	}
	go w.emitter()
}

// worker compresses segments. Results go back through the per-job result
// channel so the emitter can restore write order.
func (w *Writer) worker() {
	defer w.workerWG.Done()
	for job := range w.jobs {
		job.result <- w.compressSegment(job.index, job.data)
	}
}

// emitter writes frames in submission order. On the first error it stops
// writing but keeps draining, so Write/Close never deadlock against a
// full pipeline.
func (w *Writer) emitter() {
	defer close(w.emitted)
	// A resume-seeded group can already be full — its parity run was torn
	// off with the crash. Re-emit that run before any new frame.
	if k := w.opts.Parity.K; k > 0 && len(w.parityGroup) >= k && w.err() == nil {
		if err := w.emitParity(); err != nil {
			w.setErr(fmt.Errorf("core: writing resumed group parity: %w", err))
		}
	}
	for job := range w.pending {
		res := <-job.result
		w.wstatsMu.Lock()
		w.wstats.Segments++
		w.wstats.Retries += res.retries
		if res.degraded {
			w.wstats.Degraded++
		}
		w.wstatsMu.Unlock()
		// Mirror the same deltas into the registry at the same single
		// site, so counters and Stats() reconcile exactly.
		w.met.segments.Inc()
		w.met.retries.Add(int64(res.retries))
		if res.degraded {
			w.met.degraded.Inc()
		}
		w.met.bytesIn.Add(int64(len(job.data)))
		if res.err != nil {
			w.met.errors.Inc()
			w.setErr(fmt.Errorf("core: segment %d: %w", job.index, res.err))
		} else if w.err() == nil {
			var sp *obs.ActiveSpan
			if w.met.tracer != nil {
				sp = w.met.tracer.Start(fmt.Sprintf("segment %d", job.index), "frame-emit")
			}
			var n int
			var err error
			if w.opts.Parity.K > 0 {
				// Parity covers the exact frame bytes, so build the frame
				// once and both write and retain the same encoding.
				enc := format.AppendSegmentFrame(nil, job.index, len(job.data), res.container)
				n, err = w.dst.Write(enc)
				if err == nil {
					w.parityGroup = append(w.parityGroup, enc)
					if len(w.parityGroup) == w.opts.Parity.K {
						err = w.emitParity()
					}
				}
			} else {
				n, err = format.WriteSegmentFrame(w.dst, job.index, len(job.data), res.container)
			}
			sp.End(err)
			w.met.bytesOut.Add(int64(n))
			if err != nil {
				w.setErr(fmt.Errorf("core: writing segment frame %d: %w", job.index, err))
			} else {
				w.met.segmentsFor(res.codec).Inc()
				if w.opts.OnSegment != nil {
					w.opts.OnSegment(SegmentReport{
						Index:    job.index,
						RawLen:   len(job.data),
						FrameLen: n,
						Codec:    res.codec,
						Retries:  res.retries,
						Degraded: res.degraded,
						Report:   res.rep,
					})
				}
			}
		}
		w.release(job)
	}
	// The final (possibly short) group still gets its parity: a reader
	// must be able to repair losses in the stream's tail too.
	if w.err() == nil && len(w.parityGroup) > 0 {
		if err := w.emitParity(); err != nil {
			w.setErr(fmt.Errorf("core: writing tail parity: %w", err))
		}
	}
}

// emitParity closes the open parity group: it derives the group's M
// parity frames and writes them after the group's last data frame.
// Runs on the emitter goroutine.
func (w *Writer) emitParity() error {
	pfs, err := format.BuildParityFrames(w.parityFirst, w.parityGroup, w.opts.Parity.M)
	if err != nil {
		return err
	}
	for _, pf := range pfs {
		if _, err := format.WriteParityFrame(w.dst, pf); err != nil {
			return err
		}
	}
	w.wstatsMu.Lock()
	w.wstats.ParityFrames += len(pfs)
	w.wstatsMu.Unlock()
	w.parityFirst += len(w.parityGroup)
	w.parityGroup = w.parityGroup[:0]
	return nil
}

// release returns a job's segment buffer to the pool and retires its
// bytes from the in-flight account.
func (w *Writer) release(job *segJob) {
	w.flightMu.Lock()
	w.inFlight -= cap(job.data)
	w.flightMu.Unlock()
	w.bufPool.put(job.data)
	job.data = nil
}

// compressSegment compresses segment index with the Writer's parameters,
// resolving the segment's engine from StreamOptions.Codec (so a stream
// may mix codecs frame by frame under the adaptive selector).
//
// Accelerated engines run under the retry policy: a failed attempt is
// retried after a jittered exponential backoff, and a segment that still
// fails after MaxAttempts degrades to the engine's byte-identical host
// twin (Engine.CompressCPU) unless the policy forbids it. With
// Params.Health armed, accelerated segments additionally ride the
// supervised device pool (per-device breakers, watchdog, redispatch)
// inside each attempt. StreamOptions.SegmentDeadline bounds the whole
// device phase; expiry degrades to the twin. Host engines (the CPU
// codecs, bzip2, raw-store) fail fast — their errors are deterministic.
func (w *Writer) compressSegment(index int, data []byte) segResult {
	p := w.params
	// Workers run concurrently; a shared SearchStats would race. Collect
	// locally and merge under the stats mutex.
	var local *lzss.SearchStats
	if p.Stats != nil {
		local = new(lzss.SearchStats)
		p.Stats = local
	}

	eng, err := resolveEngine(w.opts.Codec, data)
	if err != nil {
		return segResult{err: err}
	}
	opts, err := p.engineOptions(eng)
	if err != nil {
		return segResult{err: err}
	}
	opts.HostWorkers = 1 // the segment pipeline is the host parallelism

	merge := func() {
		if local != nil {
			w.statsMu.Lock()
			w.params.Stats.Add(*local)
			w.statsMu.Unlock()
		}
	}

	if !eng.Accelerated() {
		out, rep, err := eng.Compress(data, opts)
		if err == nil {
			merge()
		}
		return segResult{container: out, codec: eng.Codec(), rep: rep, err: err}
	}

	// The segment context bounds the whole device phase: every attempt,
	// the backoff sleeps, and (supervised) the redispatch ladder. Expiry
	// does not fail the segment — it routes to the CPU degrade below.
	segCtx := w.ctx
	cancel := func() {}
	if d := w.opts.SegmentDeadline; d > 0 {
		segCtx, cancel = context.WithTimeout(w.ctx, d)
	}
	defer cancel()

	// abortErr classifies a cancellation: non-nil means the segment must
	// fail with it (the stream context is done and drain is off); nil
	// means the device phase merely ended (segment deadline expired, or
	// drain mode) and the segment should degrade.
	abortErr := func() error {
		if w.ctxErr() != nil && !w.opts.DrainOnCancel {
			return w.ctx.Err()
		}
		return nil
	}

	supDegraded := false
	var rep *gpu.Report
	attempt := func() ([]byte, error) {
		if local != nil {
			*local = lzss.SearchStats{} // drop stats from a failed attempt
		}
		rep = nil
		aopts := opts
		aopts.Context = segCtx
		if p.Health != nil {
			out, r, degraded, err := gpu.CompressSupervised(
				eng, data, aopts, index%p.Health.Devices(), fmt.Sprintf("segment %d", index))
			if err == nil {
				supDegraded = degraded
				rep = r
			}
			return out, err
		}
		out, r, err := eng.Compress(data, aopts)
		rep = r
		return out, err
	}

	pol := w.opts.Retry
	maxAttempts := pol.maxAttempts()
	var lastErr error
	retries := 0
	for a := 1; ; a++ {
		if cerr := segCtx.Err(); cerr != nil {
			if err := abortErr(); err != nil {
				return segResult{retries: retries, err: err}
			}
			lastErr = cerr
			break // deadline expired (or draining): degrade
		}
		out, err := attempt()
		if err == nil {
			merge()
			return segResult{container: out, codec: eng.Codec(), rep: rep,
				retries: retries, degraded: supDegraded}
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if aerr := abortErr(); aerr != nil {
				return segResult{retries: retries, err: aerr}
			}
			break // the segment deadline cut the attempt: degrade
		}
		if a >= maxAttempts {
			break
		}
		retries++
		if err := w.sleepBackoff(segCtx, a); err != nil {
			if aerr := abortErr(); aerr != nil {
				return segResult{retries: retries, err: aerr}
			}
			break
		}
	}

	if pol.DisableFallback {
		return segResult{retries: retries,
			err: fmt.Errorf("core: gpu path failed after %d attempts: %w", maxAttempts, lastErr)}
	}
	if local != nil {
		*local = lzss.SearchStats{}
	}
	// Degrade: the engine's host twin, zero device fault sites. The twin
	// emits the same container bytes as the device path, so mixed streams
	// stay parity-consistent and decode through the ordinary path. Under
	// graceful drain the stream context may already be cancelled; the
	// fallback still runs to completion so Close can emit a trailer
	// covering every accepted byte (only reachable with DrainOnCancel —
	// otherwise a cancelled stream returned above).
	fbCtx := w.ctx
	if w.ctxErr() != nil {
		fbCtx = context.Background()
	}
	out, err := eng.CompressCPU(data, gpu.Options{
		ChunkSize:       p.ChunkSize,
		ThreadsPerBlock: p.ThreadsPerBlock,
		Config:          opts.Config,
		HostWorkers:     1,
		Stats:           local,
		Context:         fbCtx,
	})
	if err != nil {
		return segResult{retries: retries,
			err: fmt.Errorf("core: cpu fallback after gpu failure (%v): %w", lastErr, err)}
	}
	merge()
	return segResult{container: out, codec: eng.Codec(), retries: retries, degraded: true}
}

// sleepBackoff sleeps the jittered exponential delay before retry number
// attempt, returning early with ctx's error if it fires first.
func (w *Writer) sleepBackoff(ctx context.Context, attempt int) error {
	pol := w.opts.Retry
	d := pol.baseBackoff() << uint(attempt-1)
	if limit := pol.maxBackoff(); d > limit || d <= 0 {
		d = limit
	}
	// Full jitter over [d/2, d] decorrelates retry storms.
	w.rngMu.Lock()
	j := d/2 + time.Duration(w.rng.Int63n(int64(d/2)+1))
	w.rngMu.Unlock()
	t := time.NewTimer(j)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
}

func (w *Writer) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// Write accepts plaintext, cutting and dispatching full segments as they
// accumulate. It blocks when HostWorkers segments are already in flight.
func (w *Writer) Write(data []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.ctxErr(); err != nil {
		return 0, err
	}
	if err := w.err(); err != nil {
		return 0, err
	}
	w.start()
	if err := w.err(); err != nil {
		return 0, err // e.g. the stream header failed to write
	}
	written := 0
	for len(data) > 0 {
		if w.buf == nil {
			w.buf = w.bufPool.get(w.segSize)
			w.segStart = time.Now()
		}
		n := w.segSize - len(w.buf)
		if n > len(data) {
			n = len(data)
		}
		w.buf = append(w.buf, data[:n]...)
		w.crc = format.Checksum32Update(w.crc, data[:n])
		w.total += n
		written += n
		data = data[n:]
		if len(w.buf) == w.segSize {
			if err := w.flushSegment(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// flushSegment hands the current buffer to the pipeline. The send into
// pending blocks while HostWorkers segments are in flight — that
// backpressure is the Writer's memory bound.
func (w *Writer) flushSegment() error {
	if w.met.tracer != nil {
		// The "read" stage: wall time spent accumulating this segment's
		// plaintext (includes the caller's own pacing — that is the
		// point: a slow producer shows up here, not in compress stages).
		w.met.tracer.Record(obs.Span{
			Op: fmt.Sprintf("segment %d", w.index), Stage: "read", Device: -1,
			Start: w.segStart, Duration: time.Since(w.segStart),
		})
	}
	job := &segJob{index: w.index, data: w.buf, result: make(chan segResult, 1)}
	w.index++
	w.buf = nil
	w.flightMu.Lock()
	w.inFlight += cap(job.data)
	if w.inFlight > w.maxFlight {
		w.maxFlight = w.inFlight
	}
	w.flightMu.Unlock()
	if w.opts.DrainOnCancel {
		// Graceful drain: the bytes were accepted, so the segment enters
		// the pipeline even while the stream context is cancelled — the
		// workers degrade it to the CPU encoder and the trailer stays
		// honest. The send still bounds memory (pending drains because
		// in-flight segments always complete under drain).
		w.pending <- job
	} else {
		select {
		case w.pending <- job:
		case <-w.ctx.Done():
			// The job never entered the pipeline; retire it here.
			w.release(job)
			w.setErr(w.ctx.Err())
			return w.err()
		}
	}
	w.jobs <- job
	return w.err()
}

// Close flushes the final partial segment, waits for the pipeline to
// drain, writes the stream trailer, and reports the first error seen.
// Closing an empty Writer emits a valid zero-segment stream. A second
// Close is a no-op returning nil.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.start()
	if w.buf != nil && len(w.buf) > 0 {
		if err := w.flushSegment(); err != nil {
			// Pipeline already failed; still fall through to teardown.
			_ = err
		}
	}
	close(w.jobs)
	close(w.pending)
	w.workerWG.Wait()
	<-w.emitted
	if err := w.err(); err != nil {
		return err
	}
	trailer := &format.StreamTrailer{Segments: w.index, TotalLen: w.total, Checksum: w.crc}
	if _, err := format.WriteStreamTrailer(w.dst, trailer); err != nil {
		w.setErr(fmt.Errorf("core: writing stream trailer: %w", err))
	}
	return w.err()
}

// maxInFlight reports the high-water mark of segment-buffer bytes held by
// the pipeline (test hook for the memory-bound guarantee).
func (w *Writer) maxInFlight() int {
	w.flightMu.Lock()
	defer w.flightMu.Unlock()
	return w.maxFlight
}

// Framed streaming: the bounded-memory io.Writer / io.Reader adapters over
// the block compressor.
//
// CULZSS is a block compressor — a single container needs its whole input
// up front for the chunk table. The paper's gateway scenario ("heavy
// traffic from millions of users") cannot buffer whole transfers, so the
// Writer cuts the plaintext into SegmentSize segments, compresses each
// into an ordinary container through a bounded worker pipeline (mirroring
// the §VII stream-pipelining idea: segment i+1 compresses while segment i
// is being emitted), and frames the containers with internal/format's
// stream records. Peak memory is O(SegmentSize × HostWorkers) regardless
// of stream length; emission order is the write order.
//
// The Reader auto-detects the input: a framed stream ("CLZS") decodes
// incrementally, one segment at a time; a bare container ("CLZ1") is
// decompressed whole, preserving the previous adapter behaviour.
//
// This file holds what both sides share — the stream options, stats and
// metrics; writer.go holds the compressing pipeline, reader.go the
// decoding one.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"culzss/internal/codec"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/obs"
)

// writerMetrics holds the Writer's pre-resolved instruments. With
// Params.Obs nil every field is nil and every call inert, so the
// disabled Writer pays nothing beyond nil tests. Counters increment in
// the emitter, the same single site that updates WriterStats, so a fresh
// registry's totals reconcile with Stats() exactly.
type writerMetrics struct {
	segments *obs.Counter
	retries  *obs.Counter
	degraded *obs.Counter
	errors   *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	tracer   *obs.Tracer

	// reg and byCodec back the per-codec segment counter
	// (culzss_segments_total{codec=}): series materialise lazily, on the
	// first segment a codec actually emits, so a fixed-codec stream
	// exports exactly one series. Touched only by the emitter goroutine.
	reg     *obs.Registry
	byCodec map[format.Codec]*obs.Counter
}

func newWriterMetrics(reg *obs.Registry) writerMetrics {
	if reg == nil {
		return writerMetrics{}
	}
	reg.SetHelp("culzss_writer_segments_total", "Segments the Writer pipeline emitted (including failed ones).")
	reg.SetHelp("culzss_writer_retries_total", "Extra GPU attempts beyond each segment's first.")
	reg.SetHelp("culzss_writer_degraded_total", "Segments that fell back to the CPU encoder.")
	reg.SetHelp("culzss_writer_errors_total", "Segments that failed the stream.")
	reg.SetHelp("culzss_writer_bytes_in_total", "Plaintext bytes of emitted segments.")
	reg.SetHelp("culzss_writer_bytes_out_total", "Framed compressed bytes written (segment frames only).")
	reg.SetHelp("culzss_segments_total", "Segments emitted, labelled by the codec that encoded them.")
	return writerMetrics{
		segments: reg.Counter("culzss_writer_segments_total"),
		retries:  reg.Counter("culzss_writer_retries_total"),
		degraded: reg.Counter("culzss_writer_degraded_total"),
		errors:   reg.Counter("culzss_writer_errors_total"),
		bytesIn:  reg.Counter("culzss_writer_bytes_in_total"),
		bytesOut: reg.Counter("culzss_writer_bytes_out_total"),
		tracer:   reg.Tracer(),
		reg:      reg,
	}
}

// segmentsFor returns the per-codec segment counter, materialising the
// labelled series on first use. Emitter goroutine only.
func (m *writerMetrics) segmentsFor(c format.Codec) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	if ctr, ok := m.byCodec[c]; ok {
		return ctr
	}
	label := c.String()
	if eng, ok := codec.Lookup(c); ok {
		label = eng.Name() // the registry's short name, matching the CLI flag
	}
	ctr := m.reg.Counter("culzss_segments_total", obs.L("codec", label))
	if m.byCodec == nil {
		m.byCodec = make(map[format.Codec]*obs.Counter)
	}
	m.byCodec[c] = ctr
	return ctr
}

// readerMetrics is the Reader-side counterpart. Counters increment at
// the delivery site, the same single site that updates ReaderStats, so
// a fresh registry's totals reconcile with Stats() exactly.
type readerMetrics struct {
	segments *obs.Counter
	bytesOut *obs.Counter
	corrupt  *obs.Counter
	inflight *obs.Gauge
	tracer   *obs.Tracer
}

func newReaderMetrics(reg *obs.Registry) readerMetrics {
	if reg == nil {
		return readerMetrics{}
	}
	reg.SetHelp("culzss_reader_segments_total", "Framed segments decoded and served.")
	reg.SetHelp("culzss_reader_bytes_out_total", "Plaintext bytes served from framed segments.")
	reg.SetHelp("culzss_reader_corrupt_segments_total", "Damaged regions recorded in salvage mode.")
	reg.SetHelp("culzss_reader_inflight_segments", "Segments admitted to the decode pipeline and not yet delivered.")
	return readerMetrics{
		segments: reg.Counter("culzss_reader_segments_total"),
		bytesOut: reg.Counter("culzss_reader_bytes_out_total"),
		corrupt:  reg.Counter("culzss_reader_corrupt_segments_total"),
		inflight: reg.Gauge("culzss_reader_inflight_segments"),
		tracer:   reg.Tracer(),
	}
}

// DefaultSegmentSize is the Writer's default segment granularity. 1 MiB
// keeps per-worker buffers small while amortising the per-frame header
// and giving the GPU engines enough chunks per launch to fill the device.
const DefaultSegmentSize = 1 << 20

// StreamOptions tune the framed stream layer.
type StreamOptions struct {
	// SegmentSize is the uncompressed bytes per segment; 0 means
	// DefaultSegmentSize. Smaller segments lower latency and peak memory,
	// larger segments improve ratio (more window context) and shrink
	// framing overhead.
	SegmentSize int
	// Retry bounds the per-segment retry/degrade policy for the
	// accelerated engines. The zero value means up to 3 attempts with
	// 1ms..50ms jittered exponential backoff, then CPU fallback.
	Retry RetryPolicy
	// Context, when non-nil, cancels the Writer's pipeline: Write and
	// Close fail with the context's error once it is done, and in-flight
	// segment compressions stop between retry attempts. nil means
	// context.Background().
	Context context.Context
	// MaxInFlight is the admission bound: at most this many segments may
	// be in the pipeline at once (Write blocks beyond it — that
	// backpressure is the Writer's memory bound). 0 means HostWorkers.
	// Values below HostWorkers also shrink the worker pool: admission is
	// the bound, not worker count.
	MaxInFlight int
	// SegmentDeadline bounds one segment's total time on the GPU path
	// (all retry attempts and, under Params.Health, the whole
	// redispatch ladder). A segment that exceeds it degrades to the
	// deterministic CPU encoder instead of failing the stream — the
	// stream trades latency for completeness, never the reverse.
	// 0 disables the per-segment deadline.
	SegmentDeadline time.Duration
	// Resume, when non-nil, continues an existing framed stream instead of
	// starting one: the Writer skips the stream header, numbers its first
	// segment NextIndex, and folds Total/CRC into the trailer so the final
	// stream is indistinguishable from an uninterrupted run. The caller
	// owns the file surgery (truncating to a verified frame boundary and
	// positioning dst there — see internal/durable); SegmentSize must
	// match the original stream's.
	Resume *ResumeState
	// Parity selects self-healing redundancy: after every Parity.K data
	// frames the Writer emits Parity.M parity frames carrying an erasure
	// code over the group's exact frame bytes, so a salvage+repair Reader
	// can reconstruct up to M damaged or missing frames per group
	// bit-identically instead of skipping them. The zero value disables
	// parity and the output is byte-identical to a parity-less stream.
	// Overhead is roughly M/K of the compressed size plus small headers.
	Parity ParityConfig
	// DrainOnCancel selects graceful drain: when Context is cancelled,
	// Write stops admitting new data (it returns the context's error as
	// before) but every segment already accepted — in flight or buffered
	// — is still compressed (degrading to the CPU encoder, which needs no
	// device) and Close emits a valid trailer covering all accepted
	// bytes. Without it, cancellation abandons in-flight work and Close
	// reports the context's error.
	DrainOnCancel bool
	// Codec selects the segment engine by registry name ("v1", "v2",
	// "cpu", "pthread", "bzip2", "raw"), or codec.Auto for the adaptive
	// per-segment selector (a cheap sample probe picks V2, V1, or
	// raw-store segment by segment). Each segment's choice is recorded in
	// its embedded container's codec byte — the frame layer carries no
	// extra state, so any Reader dispatches per frame. "" means codec.Auto.
	Codec string
	// OnSegment, when non-nil, observes every emitted segment frame in
	// stream order from the emitter goroutine — the Writer-side mirror of
	// ReaderOptions.OnSegment. The bench harness uses it to collect
	// per-segment codec choices and device reports without re-reading the
	// stream. It must not block: the emitter is the pipeline's only
	// in-order stage.
	OnSegment func(SegmentReport)
}

// SegmentReport describes one emitted segment frame, delivered through
// StreamOptions.OnSegment in stream order.
type SegmentReport struct {
	// Index is the segment's frame index.
	Index int
	// RawLen is the segment's plaintext length.
	RawLen int
	// FrameLen is the encoded frame's total length (frame header
	// included) as written to the stream.
	FrameLen int
	// Codec identifies the engine that encoded this segment — under
	// StreamOptions.Codec "auto" it varies per segment.
	Codec format.Codec
	// Retries is the number of extra device attempts the segment consumed.
	Retries int
	// Degraded reports that the segment fell back to the engine's CPU twin.
	Degraded bool
	// Report is the device performance report; nil for host-encoded
	// (CPU-codec, raw, or degraded) segments.
	Report *gpu.Report
}

// ParityConfig is StreamOptions.Parity: the K+M geometry of the
// stream's parity groups.
type ParityConfig struct {
	// K is the number of data frames per parity group; 0 disables
	// parity. Bounded by format.MaxParityK.
	K int
	// M is the number of parity frames per group: 1 selects the XOR fast
	// path (repairs any single loss), larger M Reed–Solomon (any M
	// losses). Bounded by format.MaxParityM; must be ≥ 1 when K > 0.
	M int
}

func (c ParityConfig) validate() error {
	if c.K == 0 && c.M == 0 {
		return nil
	}
	if c.K < 1 || c.K > format.MaxParityK {
		return fmt.Errorf("core: parity K %d out of range [1,%d]", c.K, format.MaxParityK)
	}
	if c.M < 1 || c.M > format.MaxParityM {
		return fmt.Errorf("core: parity M %d out of range [1,%d]", c.M, format.MaxParityM)
	}
	return nil
}

// ResumeState carries the stream position a resumed Writer continues
// from. It is what durable.ScanTail recovers from an interrupted file:
// the index the next segment frame must carry, the plaintext bytes
// already represented by the surviving frames, and the incremental
// CRC-32 (format.Checksum32Update state) over that plaintext.
type ResumeState struct {
	// NextIndex is the index of the next segment frame to emit — the
	// number of complete frames already on disk.
	NextIndex int
	// Total is the plaintext byte count covered by the surviving frames.
	Total int
	// CRC is the running plaintext CRC-32 over those Total bytes.
	CRC uint32
	// GroupFrames, for a parity-bearing stream, holds the exact encoded
	// bytes of the surviving data frames of the trailing incomplete
	// parity group (the frames after the last parity run). A resumed
	// Writer seeds its group accumulator with them so the group's parity
	// eventually covers the pre-crash frames too, keeping the finished
	// stream byte-equivalent to an uninterrupted run. Empty when the cut
	// landed on a group boundary or the stream carries no parity.
	GroupFrames [][]byte
}

// RetryPolicy bounds how hard the Writer fights for a segment before
// giving up on the GPU path. Failures of the host engines are
// deterministic and never retried; GPU-path failures (launch faults,
// transfer faults, chunk faults — all of which the fault-injection layer
// can produce) are retried with exponential backoff plus jitter, and a
// segment that still fails after MaxAttempts degrades to the engine's
// host twin (Engine.CompressCPU), which emits a bit-identical container,
// so one flaky device never kills the stream.
type RetryPolicy struct {
	// MaxAttempts is the number of GPU attempts per segment (including
	// the first); 0 means 3.
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; each
	// further retry doubles it. 0 means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay; 0 means 50ms.
	MaxBackoff time.Duration
	// DisableFallback turns the CPU degrade path off: a segment that
	// exhausts MaxAttempts fails the stream instead.
	DisableFallback bool
}

func (r RetryPolicy) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

func (r RetryPolicy) baseBackoff() time.Duration {
	if r.BaseBackoff <= 0 {
		return time.Millisecond
	}
	return r.BaseBackoff
}

func (r RetryPolicy) maxBackoff() time.Duration {
	if r.MaxBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return r.MaxBackoff
}

// WriterStats reports the Writer's retry/degrade activity, and — when a
// health supervisor is armed via Params.Health — the supervisor's
// device-pool counters over this Writer's lifetime.
type WriterStats struct {
	// Segments is the number of segments the pipeline processed.
	Segments int
	// Retries is the total number of extra GPU attempts beyond each
	// segment's first.
	Retries int
	// Degraded is the number of segments that fell back to the CPU
	// encoder after exhausting their GPU attempts (or, supervised, after
	// the whole pool was quarantined or the segment deadline expired).
	Degraded int
	// ParityFrames is the number of parity frames emitted (0 without
	// StreamOptions.Parity).
	ParityFrames int
	// Resumed is the number of segment frames inherited from an
	// interrupted stream (StreamOptions.Resume's NextIndex); 0 for a
	// fresh stream.
	Resumed int
	// Committed is the number of segment frames known to have reached
	// stable storage. The core Writer never fsyncs, so it reports 0; the
	// durable layer fills it in.
	Committed int
	// TimedOut counts watchdog-cut device operations; Redispatched counts
	// work re-routed to a sibling device after a failure; BreakerOpens
	// counts circuit-breaker Open transitions; Quarantined is the number
	// of devices currently quarantined. All zero without a supervisor.
	TimedOut, Redispatched, BreakerOpens, Quarantined int
}

func (o StreamOptions) segmentSize() int {
	if o.SegmentSize <= 0 {
		return DefaultSegmentSize
	}
	return o.SegmentSize
}

// ReaderStats is a point-in-time snapshot of a framed Reader's decode
// activity, safe to take concurrently with Read.
type ReaderStats struct {
	// Segments and Bytes count delivered segments and plaintext bytes.
	Segments int
	Bytes    int
	// Corrupt and Repaired mirror len(CorruptSegments()) and
	// len(RepairedSegments()).
	Corrupt  int
	Repaired int
	// MaxInFlight is the high-water mark of segments admitted to the
	// pipeline and not yet delivered (the memory-bound guarantee's test
	// hook, the mirror of the Writer's).
	MaxInFlight int
	// PoolHits and PoolMisses count buffer requests served from the
	// Reader's recycle pools versus freshly allocated.
	PoolHits   int64
	PoolMisses int64
}

// ReaderOptions tune the Reader's decode behaviour.
type ReaderOptions struct {
	// Salvage opts into best-effort decode of damaged framed streams:
	// instead of stopping at the first bad record, the Reader skips
	// damaged regions (resynchronising at the next frame that parses and
	// checksums cleanly), keeps serving every intact segment, and records
	// one *format.CorruptSegmentError per damaged region, retrievable via
	// CorruptSegments. Salvaged segments still pass the per-frame CRC and
	// the per-container chunk checksums; only the end-to-end trailer
	// checks are waived (they cannot hold once bytes are missing).
	Salvage bool
	// Context, when non-nil, cancels the decode: Read fails with the
	// context's error at the next segment boundary. nil means
	// context.Background().
	Context context.Context
	// OnCorrupt, when non-nil, is called once per damaged region as it is
	// discovered (salvage mode only), before the following intact segment
	// is served.
	OnCorrupt func(*format.CorruptSegmentError)
	// Repair upgrades salvage from skip to heal: damaged or missing
	// segment frames are reconstructed bit-identically from the stream's
	// parity frames (when the writer emitted them via
	// StreamOptions.Parity), and only damage beyond the parity's reach
	// degrades to a recorded CorruptSegmentError. Implies Salvage.
	// Parity-less streams decode as under plain salvage. Healed regions
	// are recorded as *format.RepairedSegmentError, retrievable via
	// RepairedSegments; when every damaged region is repaired the
	// end-to-end trailer checks are enforced again (nothing is missing).
	Repair bool
	// OnRepair, when non-nil, is called once per healed region as its
	// parity group settles (repair mode only), before the repaired
	// segments are served.
	OnRepair func(*format.RepairedSegmentError)
	// HostWorkers is the decode pipeline's worker-pool size for framed
	// streams: up to that many segments decompress concurrently while
	// delivery stays strictly in stream order. 0 falls back to
	// Params.HostWorkers, then GOMAXPROCS; 1 decodes serially (the
	// pre-pipeline behaviour). Each pipeline worker decodes its segment
	// single-threaded — the segment pipeline is the host parallelism,
	// exactly as in the Writer.
	HostWorkers int
	// Prefetch bounds how many records the prefetcher may queue ahead of
	// delivery; 0 means MaxInFlight. Raising it smooths bursty sources
	// without raising decoded-memory use (queued-but-unadmitted records
	// hold only their compressed containers).
	Prefetch int
	// MaxInFlight is the admission bound: at most this many segments may
	// be decoded or decoding at once, so peak decoded-segment memory is
	// MaxInFlight segments plus the one being served. 0 means
	// HostWorkers. Values below HostWorkers also shrink the worker pool —
	// admission, not worker count, is the bound.
	MaxInFlight int
	// MaxContainerLen bounds the legacy bare-container path: a non-framed
	// input longer than this fails with ErrContainerTooLarge instead of
	// being buffered without limit (the container format is not
	// incremental, so the Reader must hold it whole). 0 means
	// DefaultMaxContainerLen; negative means unlimited.
	MaxContainerLen int64
	// OnSegment, when non-nil, observes every delivered segment in stream
	// order: its index, plaintext length, and the GPU decode report (nil
	// for CPU-codec segments). The bench harness uses it to collect
	// per-segment modeled decode costs without re-reading the stream.
	OnSegment func(index, rawLen int, rep *gpu.Report)
}

// DefaultMaxContainerLen is the legacy bare-container path's input cap
// (the ReaderOptions.MaxContainerLen zero value). It matches the frame
// layer's segment ceiling — far beyond any real single container.
const DefaultMaxContainerLen = int64(format.MaxSegmentLen)

// resolve computes the pipeline geometry — worker count, admission bound,
// and read-ahead — applying the documented defaults.
func (o *ReaderOptions) resolve(p Params) (workers, bound, prefetch int) {
	workers = o.HostWorkers
	if workers <= 0 {
		workers = p.HostWorkers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bound = o.MaxInFlight
	if bound <= 0 {
		bound = workers
	}
	if workers > bound {
		workers = bound // more workers than admitted segments is waste
	}
	prefetch = o.Prefetch
	if prefetch <= 0 {
		prefetch = bound
	}
	return workers, bound, prefetch
}

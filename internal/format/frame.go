// Frame layer: a *framed stream* is a sequence of self-describing segment
// containers, the bounded-memory transport the paper's network-gateway
// scenario needs (§VII: "heavy traffic" cannot buffer whole files). One
// logical stream is cut into segments; each segment is compressed into an
// ordinary CLZ1 container and wrapped in a frame record, so a receiver can
// decode segment-at-a-time with O(SegmentSize) memory and detect
// truncation or corruption before handing bytes to a decompressor.
//
// Wire layout (all multi-byte integers are unsigned varints unless noted):
//
//	stream header
//	  magic        4 bytes  "CLZS"
//	  version      1 byte   frame format version (currently 1)
//	  flags        1 byte   reserved, must be zero
//	  segmentSize  varint   nominal uncompressed segment size (advisory)
//
//	segment frame, repeated once per segment
//	  marker       1 byte   0x01
//	  index        varint   0-based sequence number
//	  rawLen       varint   uncompressed length of this segment
//	  compLen      varint   length of the container that follows
//	  crc          4 bytes  CRC-32 (IEEE) of the container bytes, big endian
//	  container    compLen bytes  a standard CLZ1 container (any codec)
//
//	trailer
//	  marker       1 byte   0x00
//	  segments     varint   total number of segment frames
//	  totalLen     varint   total uncompressed stream length
//	  crc          4 bytes  CRC-32 (IEEE) of the whole uncompressed stream
//
// The per-frame CRC covers the *compressed* container, so a receiver
// rejects a damaged frame without paying for decompression; the trailer
// CRC covers the *uncompressed* stream, the end-to-end "data looks the
// same going in as coming out" guarantee (§III). The trailer marker reuses
// the frame-marker byte position, so a reader distinguishes "next segment"
// from "end of stream" with a single byte read.
//
// One parser reads this grammar: ParseRecord decodes a single segment,
// parity or trailer record from a byte slice and checks everything that
// needs no stream context (marker, varint bound, length caps, parity
// geometry, frame or shard CRC). The FrameReader runs it over a sliding
// window of its input in every mode — strict, salvage and repair add only
// their context rules (index order, trailer counts, resynchronisation) —
// and the durable writer runs it over each record it commits.
package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"culzss/internal/obs"
)

// StreamMagic identifies a CULZSS framed stream. It deliberately shares
// the "CLZ" prefix with the container magic while staying distinguishable
// in the fourth byte.
const StreamMagic = "CLZS"

// StreamVersion is the current frame format version.
const StreamVersion = 1

// Frame markers (the first byte of every record after the stream header).
const (
	frameMarkerTrailer = 0x00
	frameMarkerSegment = 0x01
)

// MaxSegmentLen caps the per-segment lengths a reader will accept; frames
// claiming more are corrupt (and would otherwise let a hostile header
// drive a huge allocation).
const MaxSegmentLen = 1 << 30

// Frame-layer errors.
var (
	// ErrBadStreamMagic marks input that is not a framed stream.
	ErrBadStreamMagic = errors.New("format: bad stream magic (not a CULZSS framed stream)")
	// ErrFrameChecksum marks a segment frame whose container bytes fail
	// the per-frame CRC.
	ErrFrameChecksum = errors.New("format: frame checksum mismatch")
	// ErrFrameOrder marks out-of-sequence segment indices.
	ErrFrameOrder = errors.New("format: segment frames out of order")
)

// SegmentFrame is one decoded segment record.
type SegmentFrame struct {
	Index     int    // 0-based sequence number
	RawLen    int    // uncompressed length of the segment
	Container []byte // the CLZ1 container holding the compressed segment
}

// StreamTrailer is the end-of-stream record.
type StreamTrailer struct {
	Segments int    // number of segment frames in the stream
	TotalLen int    // total uncompressed length
	Checksum uint32 // CRC-32 (IEEE) of the whole uncompressed stream
}

// AppendStreamHeader appends the encoded stream header to dst.
func AppendStreamHeader(dst []byte, segmentSize int) []byte {
	dst = append(dst, StreamMagic...)
	dst = append(dst, StreamVersion, 0)
	return binary.AppendUvarint(dst, uint64(segmentSize))
}

// AppendSegmentFrame appends one segment frame (record plus container) to
// dst.
func AppendSegmentFrame(dst []byte, index, rawLen int, container []byte) []byte {
	dst = append(dst, frameMarkerSegment)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = binary.AppendUvarint(dst, uint64(len(container)))
	dst = binary.BigEndian.AppendUint32(dst, Checksum32(container))
	return append(dst, container...)
}

// AppendStreamTrailer appends the trailer record to dst.
func AppendStreamTrailer(dst []byte, t *StreamTrailer) []byte {
	dst = append(dst, frameMarkerTrailer)
	dst = binary.AppendUvarint(dst, uint64(t.Segments))
	dst = binary.AppendUvarint(dst, uint64(t.TotalLen))
	return binary.BigEndian.AppendUint32(dst, t.Checksum)
}

// WriteStreamHeader writes the stream header to w and reports the bytes
// written.
func WriteStreamHeader(w io.Writer, segmentSize int) (int, error) {
	return w.Write(AppendStreamHeader(make([]byte, 0, 16), segmentSize))
}

// WriteSegmentFrame writes one segment frame to w and reports the bytes
// written.
func WriteSegmentFrame(w io.Writer, index, rawLen int, container []byte) (int, error) {
	return w.Write(AppendSegmentFrame(make([]byte, 0, 24+len(container)), index, rawLen, container))
}

// WriteStreamTrailer writes the trailer to w and reports the bytes
// written.
func WriteStreamTrailer(w io.Writer, t *StreamTrailer) (int, error) {
	return w.Write(AppendStreamTrailer(make([]byte, 0, 16), t))
}

// FrameReader decodes a framed stream incrementally: one Next call per
// record, holding at most one record (plus one read of look-ahead) in
// memory. Every mode reads its input through the same window and parses
// it with ParseRecord.
type FrameReader struct {
	// SegmentSize is the advisory nominal segment size from the stream
	// header.
	SegmentSize int
	// Obs, when non-nil, counts decoded records
	// (culzss_frames_read_total{kind=...}) and — in salvage mode —
	// resynchronisations and discarded bytes. Set it before the first
	// Next call; nil is inert.
	Obs *obs.Registry

	// OnParity, when non-nil, observes every intact parity frame as it is
	// decoded (both modes). Parity frames are otherwise transparent: Next
	// never returns them. In normal mode the frame's Shard aliases the
	// reader's input window and is valid only during the call.
	OnParity func(*ParityFrame)
	// RepairSink, when non-nil in repair mode, receives the exact encoded
	// bytes of every frame the repair layer reconstructs, together with
	// the absolute stream offset the frame originally occupied — the hook
	// durable recovery uses to patch damage in place. The offset is -1
	// when the original position could not be established.
	RepairSink func(index int, off int64, encoded []byte)
	// Lease, when non-nil, supplies the buffer behind each returned
	// SegmentFrame.Container (both normal and salvage modes): it is
	// called with the needed length and may return a recycled buffer of
	// at least that capacity; a nil or short return falls back to the
	// allocator. Ownership of the Container passes to the Next caller as
	// usual — the streaming layer points Lease at a recycle pool and
	// returns each container once its segment is decoded, removing the
	// per-frame throwaway allocation. Set it before the first Next.
	Lease func(n int) []byte
	// ParityK and ParityM report the stream's parity geometry, learned
	// from the first parity frame (0,0 until one is seen / for
	// parity-less streams).
	ParityK, ParityM int
	// ParityFrames counts intact parity frames decoded so far.
	ParityFrames int

	nextIndex int
	rawTotal  int
	trailer   *StreamTrailer
	err       error

	// Parity j-sequencing state (normal mode): first index of the parity
	// group currently being read and the next expected shard number.
	parityGroupFirst int
	parityNextJ      int

	// The input window: buf holds the unconsumed bytes, a suffix of win's
	// used part, and its spare capacity is where the next read lands.
	src     io.Reader
	win     []byte
	buf     []byte
	off     int64 // absolute stream offset of buf[0]
	eof     bool
	readErr error

	// Salvage mode (see salvage.go): the decoder can back up and rescan
	// the window after a damaged record.
	salvage     bool
	corrupted   bool
	pendFrame   *SegmentFrame
	pendTrailer *StreamTrailer
	pendParity  *ParityFrame
	// recOff is the absolute stream offset at which the most recently
	// returned salvage record started.
	recOff int64

	// rep holds the repair-mode state (see repair.go); nil outside repair
	// mode.
	rep *repairState
}

// NewFrameReader parses the stream header from r and returns a reader for
// the frames that follow. Inputs not starting with StreamMagic fail with
// ErrBadStreamMagic.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	return newFrameReader(r, false)
}

// newFrameReader parses the stream header for either mode. The header
// itself is never salvaged: nothing after it can be trusted without it.
func newFrameReader(r io.Reader, salvage bool) (*FrameReader, error) {
	fr := &FrameReader{src: r, salvage: salvage, parityGroupFirst: -1}
	for {
		segSize, n, err := parseStreamHeader(fr.buf)
		switch {
		case err == nil:
			fr.SegmentSize = segSize
			fr.consume(n)
			return fr, nil
		case err != errNeedMore:
			return nil, err
		case !fr.ensure(n):
			return nil, fr.endErr()
		}
	}
}

// Offset reports the absolute stream offset just past the last record
// Next returned or absorbed (a parity frame, from inside OnParity too);
// before the first Next it is the stream header's length.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next decodes the next record. It returns (frame, nil, nil) for a segment
// frame, (nil, trailer, nil) at the end-of-stream trailer, and a non-nil
// error for truncated or corrupt input. After the trailer (or an error),
// further calls return io.EOF (or the sticky error).
// In salvage mode (NewFrameReaderSalvage) a returned *CorruptSegmentError
// is NOT sticky: it reports one damaged region, and the next call resumes
// with the first record that parsed cleanly after it.
func (fr *FrameReader) Next() (*SegmentFrame, *StreamTrailer, error) {
	if fr.err != nil {
		return nil, nil, fr.err
	}
	if fr.trailer != nil {
		return nil, nil, io.EOF
	}
	next := fr.next
	if fr.salvage {
		next = fr.nextSalvage
	}
	frame, trailer, err := next()
	if err != nil {
		var cse *CorruptSegmentError
		if errors.As(err, &cse) {
			fr.Obs.Counter("culzss_frames_salvage_resyncs_total").Inc()
			fr.Obs.Counter("culzss_frames_salvage_skipped_bytes_total").Add(cse.Skipped)
			return nil, nil, err // salvage: recoverable, not sticky
		}
		var rse *RepairedSegmentError
		if errors.As(err, &rse) {
			return nil, nil, err // repair notice: damage healed, not sticky
		}
		fr.err = err
		return nil, nil, err
	}
	if trailer != nil {
		fr.trailer = trailer
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "trailer")).Inc()
	} else {
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "segment")).Inc()
	}
	return frame, trailer, nil
}

// next is the strict (fail-fast) mode: the record at the window front
// must parse and continue the stream; parity frames are absorbed.
func (fr *FrameReader) next() (*SegmentFrame, *StreamTrailer, error) {
	for {
		seg, trailer, pf, n, err := fr.recordAt(0)
		if err == errNeedMore {
			// A stream ends only after its trailer.
			return nil, nil, fr.endErr()
		}
		if err != nil {
			return nil, nil, err
		}
		switch {
		case seg != nil:
			if seg.Index != fr.nextIndex {
				return nil, nil, fmt.Errorf("%w: got segment %d, want %d", ErrFrameOrder, seg.Index, fr.nextIndex)
			}
			fr.own(seg)
			fr.consume(n)
			fr.nextIndex++
			fr.rawTotal += seg.RawLen
			return seg, nil, nil
		case trailer != nil:
			if err := fr.checkTrailer(trailer); err != nil {
				return nil, nil, err
			}
			fr.consume(n)
			return nil, trailer, nil
		default:
			if err := fr.acceptParity(pf); err != nil {
				return nil, nil, err
			}
			fr.consume(n)
			fr.noteParity(pf)
		}
	}
}

// checkTrailer holds a trailer to the stream it closes.
func (fr *FrameReader) checkTrailer(t *StreamTrailer) error {
	if t.Segments != fr.nextIndex {
		return fmt.Errorf("%w: trailer counts %d segments, stream carried %d", ErrCorrupt, t.Segments, fr.nextIndex)
	}
	if t.TotalLen != fr.rawTotal {
		return fmt.Errorf("%w: trailer totalLen %d, segment rawLens sum to %d", ErrCorrupt, t.TotalLen, fr.rawTotal)
	}
	return nil
}

// acceptParity applies the fail-fast (normal) mode's ordering checks and
// j-sequencing bookkeeping to an intact parity frame.
func (fr *FrameReader) acceptParity(pf *ParityFrame) error {
	// Parity for [firstIndex, firstIndex+k) legally appears only right
	// after that group's last data frame.
	if pf.FirstIndex+pf.K != fr.nextIndex {
		return fmt.Errorf("%w: parity group [%d,%d) closes at segment %d, reader is at %d",
			ErrFrameOrder, pf.FirstIndex, pf.FirstIndex+pf.K, pf.FirstIndex+pf.K, fr.nextIndex)
	}
	if pf.FirstIndex == fr.parityGroupFirst {
		if pf.J != fr.parityNextJ {
			return fmt.Errorf("%w: parity shard %d of group at %d, want %d",
				ErrFrameOrder, pf.J, pf.FirstIndex, fr.parityNextJ)
		}
	} else {
		if pf.J != 0 {
			return fmt.Errorf("%w: parity group at %d starts with shard %d", ErrFrameOrder, pf.FirstIndex, pf.J)
		}
		fr.parityGroupFirst = pf.FirstIndex
	}
	fr.parityNextJ = pf.J + 1
	return nil
}

// noteParity records an intact parity frame (both modes): geometry,
// counters, hook. Salvage mode keeps parity frames past the next read, so
// it copies the shard out of the window first.
func (fr *FrameReader) noteParity(pf *ParityFrame) {
	if fr.salvage {
		pf.Shard = append([]byte(nil), pf.Shard...)
	}
	if fr.ParityK == 0 {
		fr.ParityK, fr.ParityM = pf.K, pf.M
	}
	fr.ParityFrames++
	fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "parity")).Inc()
	if fr.OnParity != nil {
		fr.OnParity(pf)
	}
}

// own copies a parsed segment's container out of the window, into a
// Lease buffer when the hook can supply one.
func (fr *FrameReader) own(seg *SegmentFrame) {
	n := len(seg.Container)
	var c []byte
	if fr.Lease != nil {
		if b := fr.Lease(n); cap(b) >= n {
			c = b[:n]
		}
	}
	if c == nil {
		c = make([]byte, n)
	}
	copy(c, seg.Container)
	seg.Container = c
}

// errNeedMore marks input that ends before the record being parsed does.
// It matches ErrTruncated, which is what it means at the end of a stream.
var errNeedMore = fmt.Errorf("%w: record extends past available data", ErrTruncated)

// field decodes the bounded varint at b[p:] and returns it with the
// position just past it.
func field(b []byte, p int) (int, int, error) {
	v, n := binary.Uvarint(b[p:])
	switch {
	case n == 0:
		return 0, 0, errNeedMore
	case n < 0:
		return 0, 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
	case v > 1<<40:
		return 0, 0, fmt.Errorf("%w: implausible varint %d", ErrCorrupt, v)
	}
	return int(v), p + n, nil
}

// parseStreamHeader parses the stream header at the front of b and
// returns the advisory segment size and the header's length. When b ends
// inside the header it returns errNeedMore and, in n, a length b must
// reach before the parse can go further.
func parseStreamHeader(b []byte) (segSize, n int, err error) {
	const fixed = len(StreamMagic) + 2 // magic, version, flags
	if len(b) < len(StreamMagic) {
		return 0, len(StreamMagic), errNeedMore
	}
	if string(b[:len(StreamMagic)]) != StreamMagic {
		return 0, 0, ErrBadStreamMagic
	}
	if len(b) < fixed {
		return 0, fixed, errNeedMore
	}
	if v := b[len(StreamMagic)]; v != StreamVersion {
		return 0, 0, fmt.Errorf("%w: stream version %d", ErrBadVersion, v)
	}
	if f := b[len(StreamMagic)+1]; f != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero stream flags %#x", ErrCorrupt, f)
	}
	segSize, n, err = field(b, fixed)
	if err == errNeedMore {
		n = len(b) + 1
	}
	return segSize, n, err
}

// ParseRecord parses the one segment, parity or trailer record at the
// front of b and returns it with its encoded length; exactly one of the
// three records is non-nil. It checks what needs no stream context: the
// marker, the varint bound, MaxSegmentLen, the parity geometry and the
// frame or shard CRC — index order and trailer counts are the caller's.
// The segment's Container and the parity frame's Shard alias b. When b
// ends mid-record the error matches ErrTruncated and n is a length b must
// reach before the parse can go further.
func ParseRecord(b []byte) (seg *SegmentFrame, trailer *StreamTrailer, pf *ParityFrame, n int, err error) {
	if len(b) == 0 {
		return nil, nil, nil, 1, errNeedMore
	}
	// fields decodes len(dst) varints starting at p.
	p := 1
	fields := func(dst []int) error {
		for i := range dst {
			if dst[i], p, err = field(b, p); err != nil {
				return err
			}
		}
		return nil
	}
	// body checks the CRC-covered payload of size bytes after the 4-byte
	// CRC at p and returns it.
	body := func(size int) ([]byte, error) {
		n = p + 4 + size
		if len(b) < n {
			return nil, errNeedMore
		}
		if Checksum32(b[p+4:n]) != binary.BigEndian.Uint32(b[p:]) {
			return nil, ErrFrameChecksum
		}
		return b[p+4 : n], nil
	}
	switch marker := b[0]; marker {
	case frameMarkerSegment:
		var f [3]int // index, rawLen, compLen
		if err = fields(f[:]); err != nil {
			break
		}
		if f[1] > MaxSegmentLen || f[2] > MaxSegmentLen {
			return nil, nil, nil, 0, fmt.Errorf("%w: implausible segment lengths raw=%d comp=%d", ErrCorrupt, f[1], f[2])
		}
		c, berr := body(f[2])
		if berr == ErrFrameChecksum {
			return nil, nil, nil, 0, fmt.Errorf("%w: segment %d", ErrFrameChecksum, f[0])
		}
		if err = berr; err == nil {
			return &SegmentFrame{Index: f[0], RawLen: f[1], Container: c}, nil, nil, n, nil
		}
	case frameMarkerTrailer:
		var f [2]int // segments, totalLen
		if err = fields(f[:]); err != nil {
			break
		}
		if n = p + 4; len(b) < n {
			err = errNeedMore
			break
		}
		return nil, &StreamTrailer{Segments: f[0], TotalLen: f[1], Checksum: binary.BigEndian.Uint32(b[p:])}, nil, n, nil
	case frameMarkerParity:
		var f [5]int // firstIndex, k, m, j, shardLen
		if err = fields(f[:]); err != nil {
			break
		}
		if err := validateParityGeometry(f[0], f[1], f[2], f[3], f[4]); err != nil {
			return nil, nil, nil, 0, err
		}
		lens := make([]int, f[1])
		if err = fields(lens); err != nil {
			break
		}
		for _, l := range lens {
			if l < 1 || l > f[4] {
				return nil, nil, nil, 0, fmt.Errorf("%w: frame length %d vs shard length %d", ErrParityGeometry, l, f[4])
			}
		}
		shard, berr := body(f[4])
		if berr == ErrFrameChecksum {
			return nil, nil, nil, 0, fmt.Errorf("%w: parity shard %d of group at %d", ErrFrameChecksum, f[3], f[0])
		}
		if err = berr; err == nil {
			return nil, nil, &ParityFrame{FirstIndex: f[0], K: f[1], M: f[2], J: f[3], ShardLen: f[4],
				FrameLens: lens, Shard: shard}, n, nil
		}
	default:
		return nil, nil, nil, 0, fmt.Errorf("%w: unknown frame marker %#x", ErrCorrupt, marker)
	}
	if err != errNeedMore {
		return nil, nil, nil, 0, err
	}
	if n <= len(b) {
		n = len(b) + 1 // ran out inside a varint
	}
	return nil, nil, nil, n, err
}

// recordAt parses the record at window position pos, reading more input
// until it is complete; errNeedMore means the input ended first.
func (fr *FrameReader) recordAt(pos int) (*SegmentFrame, *StreamTrailer, *ParityFrame, int, error) {
	for {
		seg, trailer, pf, n, err := ParseRecord(fr.buf[pos:])
		if err != errNeedMore {
			return seg, trailer, pf, n, err
		}
		if !fr.ensure(pos + n) {
			return nil, nil, nil, 0, errNeedMore
		}
	}
}

// readChunk is the window's least size and the read room a presized
// window keeps beyond the record it is sized for.
const readChunk = 16 << 10

// maxPresize caps the window the stream header's advisory segment size
// can claim before the data to fill it has arrived.
const maxPresize = 16 << 20

// fill reads more input into the window's spare capacity, reporting
// whether any bytes arrived. When less than need bytes of spare remain,
// the unconsumed bytes first move to the front of the buffer. A larger
// buffer replaces it only when it cannot hold them plus need: sized for
// them outright when that stays within the segment size the stream
// header announced, else doubled, so a length the input merely claims
// costs memory only as its bytes really arrive.
func (fr *FrameReader) fill(need int) bool {
	if fr.eof {
		return false
	}
	if cap(fr.buf)-len(fr.buf) < need {
		n := len(fr.buf)
		if cap(fr.win) < n+need {
			size := max(2*cap(fr.win), readChunk)
			if want := n + need; want > size && want <= min(fr.SegmentSize, maxPresize)+readChunk {
				size = want + readChunk
			}
			fr.win = make([]byte, size)
		}
		fr.buf = fr.win[:copy(fr.win, fr.buf)]
	}
	// Like bufio, give a source that returns no data and no error a
	// bounded number of tries before calling it stuck.
	for try := 0; try < 100; try++ {
		n, err := fr.src.Read(fr.buf[len(fr.buf):cap(fr.buf)])
		fr.buf = fr.buf[:len(fr.buf)+n]
		if err != nil {
			fr.eof = true
			if err != io.EOF {
				fr.readErr = err
			}
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	fr.eof, fr.readErr = true, io.ErrNoProgress
	return false
}

// ensure grows the window to at least n bytes, reporting success.
func (fr *FrameReader) ensure(n int) bool {
	for len(fr.buf) < n {
		if !fr.fill(n - len(fr.buf)) {
			return false
		}
	}
	return true
}

// consume discards the first n window bytes and advances the absolute
// stream offset.
func (fr *FrameReader) consume(n int) {
	fr.buf = fr.buf[n:]
	fr.off += int64(n)
}

// endErr is the error for input that ends where a record should be: the
// read error that ended it, else ErrTruncated.
func (fr *FrameReader) endErr() error {
	if fr.readErr != nil {
		return fr.readErr
	}
	return ErrTruncated
}

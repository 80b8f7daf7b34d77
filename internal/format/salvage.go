// Salvage-mode frame decoding: recover every intact segment of a damaged
// framed stream instead of dying at the first bad byte.
//
// Normal-mode FrameReader semantics are fail-fast: any CRC mismatch,
// out-of-order index, or mid-record truncation is sticky and the rest of
// the stream — often 99% intact — is lost. Salvage mode turns each
// damaged region into a structured *CorruptSegmentError and then
// *resynchronizes*: it scans forward for the next plausible frame marker,
// parses the candidate with ParseRecord over the same window normal mode
// reads, and only accepts it when the record is fully self-consistent and
// plausible where it sits — for segment frames that includes the per-frame
// CRC-32 over the container bytes, so a false resynchronization point is
// vanishingly unlikely; for the (unchecksummed) trailer a resync
// candidate is only accepted when it ends the stream exactly, which is
// the position a legal trailer must occupy.
//
// The window holds the damaged bytes scanned so far plus one candidate
// record, and grows only as those bytes arrive. Determinism:
// salvage is a pure function of the input bytes — no randomness, no
// scheduling dependence — so a given damaged stream always yields the
// same recovered segments and the same error reports.
package format

import (
	"errors"
	"fmt"
	"io"
)

// maxIndexGap bounds how far ahead a recovered segment index may jump
// past the expected one before the record is considered garbage (a
// resynchronization guard; 2^20 lost segments in one region is beyond
// plausible damage).
const maxIndexGap = 1 << 20

// CorruptSegmentError reports one damaged region of a framed stream
// encountered in salvage mode. It is returned by FrameReader.Next (and
// surfaced by core.Reader) *between* intact segments: the error is not
// sticky, and the next call resumes with the first record that parsed
// cleanly after the damage.
type CorruptSegmentError struct {
	// Index is the expected index of the first segment lost or damaged in
	// this region.
	Index int
	// Offset is the absolute byte offset in the framed stream at which
	// the damaged region begins (0 = first byte of the stream magic).
	Offset int64
	// Skipped is how many bytes were discarded to resynchronize. 0 means
	// no bytes were damaged but one or more whole frames are missing (a
	// clean index gap).
	Skipped int64
	// Err is the parse or checksum failure that triggered salvage.
	Err error
}

// Error implements error.
func (e *CorruptSegmentError) Error() string {
	if e.Skipped == 0 {
		return fmt.Sprintf("format: segment %d missing at offset %d: %v", e.Index, e.Offset, e.Err)
	}
	return fmt.Sprintf("format: corrupt region at segment %d: skipped %d bytes at offset %d: %v",
		e.Index, e.Skipped, e.Offset, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// NewFrameReaderSalvage parses the stream header from r and returns a
// FrameReader in salvage mode. The header itself is not salvageable
// (nothing downstream can be trusted without it), so header errors match
// NewFrameReader's. After a successful open, Next never returns a sticky
// error for in-stream damage: it yields *CorruptSegmentError for each
// damaged region, keeps delivering the intact segments around it, and
// ends with either the trailer, io.EOF, or ErrTruncated.
func NewFrameReaderSalvage(r io.Reader) (*FrameReader, error) {
	return newFrameReader(r, true)
}

// Corrupted reports whether salvage has recovered past at least one
// damaged region so far.
func (fr *FrameReader) Corrupted() bool { return fr.corrupted }

// salvageAt parses one complete record at window position pos and holds
// it to salvage's plausibility rules; the window is NOT consumed, but an
// accepted segment's container is already copied out of it. Failure is
// either errNeedMore (the stream ended before the record was complete)
// or a corruption error.
func (fr *FrameReader) salvageAt(pos int) (*SegmentFrame, *StreamTrailer, *ParityFrame, int, error) {
	seg, t, pf, n, err := fr.recordAt(pos)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	switch {
	case seg != nil:
		lo, hi := fr.nextIndex, fr.nextIndex+maxIndexGap
		if rep := fr.rep; rep != nil && !rep.disabled {
			// Repair mode holds frames until their group closes, so the
			// strict cursor can have been dragged ahead by an imposter
			// (index-varint flip). Accept anything not yet delivered; the
			// group buffer sorts out who is real.
			lo = rep.deliverNext
			if h := rep.maxSeen + 1 + maxIndexGap; h > hi {
				hi = h
			}
		}
		if seg.Index < lo || seg.Index > hi {
			return nil, nil, nil, 0, fmt.Errorf("%w: got segment %d, want >= %d", ErrFrameOrder, seg.Index, lo)
		}
		fr.own(seg)
	case t != nil:
		switch {
		case pos == 0 && !fr.corrupted:
			// Clean path: enforce the same consistency checks as normal
			// mode, so salvage and normal decoding agree on pristine
			// streams.
			if err := fr.checkTrailer(t); err != nil {
				return nil, nil, nil, 0, err
			}
		case pos > 0:
			// Resynchronization candidate. The trailer record carries no
			// self-checksum, so a scan can hallucinate one out of payload
			// bytes; demand the one property a real trailer must have —
			// it ends the stream exactly.
			if fr.ensure(pos + n + 1) {
				return nil, nil, nil, 0, fmt.Errorf("%w: resynchronized trailer not at stream end", ErrCorrupt)
			}
		default:
			// pos == 0 after earlier salvage: the record boundary is
			// trusted, and the counts legitimately disagree with what we
			// recovered — deliver the trailer as the stream's own claim.
		}
	default:
		// Parity follows its group's data, so a real parity frame never
		// describes a group starting past the reader's position.
		bound := fr.nextIndex
		if rep := fr.rep; rep != nil && !rep.disabled && rep.maxSeen+1 > bound {
			bound = rep.maxSeen + 1
		}
		if pf.FirstIndex > bound || pf.FirstIndex+pf.K > bound+maxIndexGap {
			return nil, nil, nil, 0, fmt.Errorf("%w: parity group at %d, reader at %d", ErrFrameOrder, pf.FirstIndex, bound)
		}
	}
	return seg, t, pf, n, nil
}

// nextSalvage decodes the next record in salvage mode. Damaged regions
// come back as *CorruptSegmentError; the following call resumes at the
// resynchronized record. In repair mode (see repair.go) the record flow
// is routed through the group buffer instead.
func (fr *FrameReader) nextSalvage() (*SegmentFrame, *StreamTrailer, error) {
	if fr.rep != nil {
		return fr.repairNext()
	}
	for {
		frame, trailer, parity, err := fr.nextSalvageRaw()
		if parity == nil {
			return frame, trailer, err
		}
		// Parity frames are transparent outside repair mode, but a group
		// that closes past the reader's position reveals data frames that
		// were excised without any byte damage — report the loss the same
		// way a clean index gap at a segment frame would.
		if close := parity.FirstIndex + parity.K; close > fr.nextIndex {
			cse := &CorruptSegmentError{
				Index:  fr.nextIndex,
				Offset: fr.recOff,
				Err:    fmt.Errorf("%w: parity closes group at %d, reader is at %d", ErrFrameOrder, close, fr.nextIndex),
			}
			fr.corrupted = true
			fr.nextIndex = close
			return nil, nil, cse
		}
	}
}

// nextSalvageRaw decodes the next record in salvage mode, surfacing
// parity frames to the caller instead of absorbing them. It does not
// advance nextIndex for parity records — callers decide how a group
// close moves the expected index. fr.recOff holds the returned record's
// absolute start offset.
func (fr *FrameReader) nextSalvageRaw() (*SegmentFrame, *StreamTrailer, *ParityFrame, error) {
	// Deliver the record stashed behind a just-reported corruption.
	if fr.pendFrame != nil {
		f := fr.pendFrame
		fr.pendFrame = nil
		return f, nil, nil, nil
	}
	if fr.pendTrailer != nil {
		t := fr.pendTrailer
		fr.pendTrailer = nil
		return nil, t, nil, nil
	}
	if fr.pendParity != nil {
		p := fr.pendParity
		fr.pendParity = nil
		return nil, nil, p, nil
	}

	startOff := fr.off
	frame, trailer, parity, n, err := fr.salvageAt(0)
	if err == nil {
		fr.consume(n)
		fr.recOff = startOff
		if parity != nil {
			fr.noteParity(parity)
			return nil, nil, parity, nil
		}
		f, t, aerr := fr.acceptSalvage(frame, trailer, startOff)
		return f, t, nil, aerr
	}
	if err == errNeedMore && len(fr.buf) == 0 {
		// Clean record boundary at end of data but no trailer was seen.
		return nil, nil, nil, fr.endErr()
	}

	// Damage at the expected record position: resynchronize.
	cause := err
	if cause == errNeedMore {
		cause = ErrTruncated
	}
	for skip := 1; ; skip++ {
		if !fr.ensure(skip + 1) {
			// Scanned to end of data without resynchronizing: the whole
			// tail is damage.
			if fr.readErr != nil {
				return nil, nil, nil, fr.readErr
			}
			skipped := int64(len(fr.buf))
			fr.consume(len(fr.buf))
			fr.corrupted = true
			return nil, nil, nil, &CorruptSegmentError{Index: fr.nextIndex, Offset: startOff, Skipped: skipped, Err: cause}
		}
		b := fr.buf[skip]
		if b != frameMarkerSegment && b != frameMarkerTrailer && b != frameMarkerParity {
			continue
		}
		f2, t2, p2, n2, err2 := fr.salvageAt(skip)
		if err2 != nil {
			continue // not a real record; keep scanning
		}
		// Resynchronized. Report the damaged region first; stash the
		// recovered record for the next call.
		fr.corrupted = true
		cse := &CorruptSegmentError{Index: fr.nextIndex, Offset: startOff, Skipped: int64(skip), Err: cause}
		fr.recOff = startOff + int64(skip)
		fr.consume(skip + n2)
		switch {
		case t2 != nil:
			fr.pendTrailer = t2
		case p2 != nil:
			fr.noteParity(p2)
			fr.pendParity = p2
		default:
			fr.nextIndex = f2.Index + 1
			fr.rawTotal += f2.RawLen
			fr.pendFrame = f2
		}
		return nil, nil, nil, cse
	}
}

// acceptSalvage applies index bookkeeping to a record parsed at the
// expected boundary, turning clean index gaps (whole frames excised
// without byte damage) into CorruptSegmentError reports too.
func (fr *FrameReader) acceptSalvage(frame *SegmentFrame, trailer *StreamTrailer, startOff int64) (*SegmentFrame, *StreamTrailer, error) {
	if trailer != nil {
		return nil, trailer, nil
	}
	if frame.Index != fr.nextIndex {
		cse := &CorruptSegmentError{
			Index:  fr.nextIndex,
			Offset: startOff,
			Err:    fmt.Errorf("%w: got segment %d, want %d", ErrFrameOrder, frame.Index, fr.nextIndex),
		}
		fr.corrupted = true
		fr.nextIndex = frame.Index + 1
		fr.rawTotal += frame.RawLen
		fr.pendFrame = frame
		return nil, nil, cse
	}
	fr.nextIndex++
	fr.rawTotal += frame.RawLen
	return frame, nil, nil
}

// IsSalvageable reports whether err is the kind of in-stream damage
// salvage mode can recover past (checksum mismatches, corrupt records,
// ordering violations, truncation) as opposed to I/O failures or API
// misuse.
func IsSalvageable(err error) bool {
	var cse *CorruptSegmentError
	return errors.As(err, &cse) ||
		errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrFrameChecksum) ||
		errors.Is(err, ErrFrameOrder) ||
		errors.Is(err, ErrParityGeometry) ||
		errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrTruncated)
}

package format

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// FuzzFrameSalvage hammers the salvage decoder with randomly bit-flipped
// and truncated framed streams. Invariants, whatever the damage:
//
//   - no panics and bounded work (the decoder terminates);
//   - delivered segment indices strictly increase;
//   - every delivered container is bit-exact equal to one of the
//     containers originally written — the per-frame CRC guarantee means
//     salvage never hands over container bytes that did not verify
//     (frame-header damage can at worst mislabel an intact container);
//   - the strict decoder over the same bytes never panics either, and
//     the two modes read one stream the same way: the frames strict
//     delivers before its first error are salvage's first frames (index,
//     RawLen and container bytes), and a stream strict accepts to its
//     trailer is one salvage finds undamaged, with the same trailer.
func FuzzFrameSalvage(f *testing.F) {
	f.Add([]byte("some payload bytes that span a few segments"), uint8(3), int64(1), uint16(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x00, 0x01}, 300), uint8(5), int64(42), uint16(7))
	f.Add([]byte{}, uint8(1), int64(7), uint16(1))
	f.Add(bytes.Repeat([]byte("CLZS"), 64), uint8(2), int64(99), uint16(3)) // magic-looking payload
	f.Fuzz(func(t *testing.T, payload []byte, nSeg uint8, mutSeed int64, cut uint16) {
		// Build a valid stream whose containers are slices of payload.
		n := int(nSeg)%6 + 1
		per := len(payload)/n + 1
		var segs [][2][]byte
		originals := make(map[string]bool)
		for i := 0; i < n; i++ {
			lo := i * per
			if lo > len(payload) {
				lo = len(payload)
			}
			hi := lo + per
			if hi > len(payload) {
				hi = len(payload)
			}
			container := payload[lo:hi]
			segs = append(segs, [2][]byte{container, container})
			originals[string(container)] = true
		}
		stream := buildStream(1<<10, segs)

		// Damage it: up to four seeded bit flips plus an optional cut.
		rng := rand.New(rand.NewSource(mutSeed))
		for i, flips := 0, rng.Intn(4)+1; i < flips && len(stream) > 0; i++ {
			stream[rng.Intn(len(stream))] ^= 1 << rng.Intn(8)
		}
		if cut > 0 && len(stream) > 0 {
			stream = stream[:rng.Intn(len(stream))]
		}

		// The strict decoder must never panic on the damaged bytes.
		var strict []*SegmentFrame
		var strictTrailer *StreamTrailer
		if fr, err := NewFrameReader(bytes.NewReader(stream)); err == nil {
			for i := 0; i < 1<<15; i++ {
				frame, tr, err := fr.Next()
				if err != nil || tr != nil {
					strictTrailer = tr
					break
				}
				strict = append(strict, frame)
			}
		}

		// Salvage decode under the invariants above.
		fr, err := NewFrameReaderSalvage(bytes.NewReader(stream))
		if err != nil {
			return // header damage; rejecting the stream is legal
		}
		delivered, damaged := 0, false
		prev := -1
		for i := 0; ; i++ {
			if i > 1<<15 {
				t.Fatal("salvage decoder failed to terminate")
			}
			frame, trailer, err := fr.Next()
			if err != nil {
				var cse *CorruptSegmentError
				if errors.As(err, &cse) {
					damaged = true
					continue // recoverable; the decoder resumes after it
				}
				if strictTrailer != nil {
					t.Fatalf("strict read the stream to its trailer, salvage ended with %v", err)
				}
				if err == io.EOF || IsSalvageable(err) || errors.Is(err, ErrTruncated) ||
					errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFrameOrder) ||
					errors.Is(err, ErrFrameChecksum) || errors.Is(err, ErrBadVersion) {
					return
				}
				t.Fatalf("unexpected terminal error class: %v", err)
			}
			if trailer != nil {
				if strictTrailer != nil && (damaged || *trailer != *strictTrailer) {
					t.Fatalf("strict accepted the stream, salvage reports damage=%v, trailer %+v vs %+v",
						damaged, trailer, strictTrailer)
				}
				if delivered < len(strict) {
					t.Fatalf("salvage delivered %d frames, strict %d before its first error", delivered, len(strict))
				}
				return
			}
			if delivered < len(strict) {
				if s := strict[delivered]; frame.Index != s.Index || frame.RawLen != s.RawLen ||
					!bytes.Equal(frame.Container, s.Container) {
					t.Fatalf("frame %d: salvage read (%d, %d, %d bytes), strict (%d, %d, %d bytes)", delivered,
						frame.Index, frame.RawLen, len(frame.Container), s.Index, s.RawLen, len(s.Container))
				}
			}
			delivered++
			if frame.Index <= prev {
				t.Fatalf("delivered indices not increasing: %d after %d", frame.Index, prev)
			}
			prev = frame.Index
			if !originals[string(frame.Container)] {
				t.Fatalf("salvage delivered a container that was never written (%d bytes, segment %d)",
					len(frame.Container), frame.Index)
			}
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"culzss/internal/format"
)

// bombContainer is a 29-byte LZSS container that claims 2^34 bytes of
// plaintext (one 2^34-byte chunk) behind a 2-byte payload. No token
// stream that short can decode to more than a few dozen bytes, so a
// decoder must refuse it before sizing its output buffer. The header's
// lookahead is the attacker's too.
func bombContainer(c format.Codec, lookahead int) []byte {
	const claimed = 1 << 34
	h := &format.Header{
		Codec:       c,
		MinMatch:    3,
		Window:      128,
		Lookahead:   lookahead,
		ChunkSize:   claimed,
		OriginalLen: claimed,
		ChunkSizes:  []int{2},
	}
	return append(format.AppendHeader(nil, h), 0x00, 'x')
}

// TestDecompressionBombRefused feeds the bomb to the one-shot API and to
// a framed Reader under both LZSS token formats: each must fail with
// format.ErrCorrupt instead of allocating 16 GiB. The byte-aligned
// decoder emits at most MinMatch+255 bytes per token, so inflating the
// header's lookahead to 2^40 must not lift its bound.
func TestDecompressionBombRefused(t *testing.T) {
	bombs := map[string][]byte{
		"v1":           bombContainer(format.CodecCULZSSV1, 18),
		"v1/lookahead": bombContainer(format.CodecCULZSSV1, 1<<40),
		"cpu":          bombContainer(format.CodecSerialBitPacked, 18),
	}
	for name, bomb := range bombs {
		if name != "v1/lookahead" && len(bomb) != 29 {
			t.Fatalf("%s: bomb is %d bytes, want 29", name, len(bomb))
		}
		if _, err := Decompress(bomb, Params{}); !errors.Is(err, format.ErrCorrupt) {
			t.Errorf("%s: Decompress: err = %v, want format.ErrCorrupt", name, err)
		}

		stream := format.AppendStreamHeader(nil, DefaultSegmentSize)
		stream = format.AppendSegmentFrame(stream, 0, 2, bomb)
		stream = format.AppendStreamTrailer(stream, &format.StreamTrailer{Segments: 1, TotalLen: 2})
		r, err := NewReader(bytes.NewReader(stream), Params{})
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		if _, err := io.ReadAll(r); !errors.Is(err, format.ErrCorrupt) {
			t.Errorf("%s: framed Reader: err = %v, want format.ErrCorrupt", name, err)
		}
	}
}

// TestDecodedBoundAdmitsRunRemainders round-trips runs of k*18+1 zero
// bytes through the LZSS codecs. Under the 18-byte lookahead they encode
// as one literal plus k full-length matches, the densest real streams,
// which the decoders' bomb check must still accept.
func TestDecodedBoundAdmitsRunRemainders(t *testing.T) {
	for _, name := range []string{"v1", "cpu", "pthread"} {
		for _, n := range []int{19, 18001} {
			data := make([]byte, n)
			c, _, err := CompressCodec(data, name, Params{})
			if err != nil {
				t.Fatalf("%s/%d: compress: %v", name, n, err)
			}
			if h, _, err := format.ParseHeader(c); err != nil || h.Codec == format.CodecStoreRaw {
				t.Fatalf("%s/%d: want an LZSS container, got %v (err %v)", name, n, h, err)
			}
			got, err := Decompress(c, Params{})
			if err != nil {
				t.Fatalf("%s/%d: decompress: %v", name, n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: round trip differs", name, n)
			}
		}
	}
}

// forgedFrameStream is a one-segment stream whose frame claims 10 bytes of
// plaintext and passes its CRC, but carries a bit-packed container whose
// header claims 2^36 bytes behind a 2^40 lookahead: the bit-packed bomb
// bound scales with that lookahead, so only the frame's RawLen exposes it.
func forgedFrameStream(c format.Codec) []byte {
	const claimed = 1 << 36
	h := &format.Header{
		Codec:       c,
		MinMatch:    3,
		Window:      4096,
		Lookahead:   1 << 40,
		ChunkSize:   claimed,
		OriginalLen: claimed,
		ChunkSizes:  []int{2},
	}
	container := append(format.AppendHeader(nil, h), 0x00, 'x')
	stream := format.AppendStreamHeader(nil, DefaultSegmentSize)
	stream = format.AppendSegmentFrame(stream, 0, 10, container)
	return format.AppendStreamTrailer(stream, &format.StreamTrailer{Segments: 1, TotalLen: 10})
}

// TestFramedBombRefused: both readers refuse a container whose length
// claim disagrees with its frame's RawLen before decoding it — strict
// mode names the segment, salvage records it as damage — and neither
// allocates anywhere near the claim.
func TestFramedBombRefused(t *testing.T) {
	for name, c := range map[string]format.Codec{"cpu": format.CodecSerialBitPacked, "pthread": format.CodecChunkedBitPacked} {
		stream := forgedFrameStream(c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		r, err := NewReader(bytes.NewReader(stream), Params{})
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		if _, err := io.ReadAll(r); !errors.Is(err, format.ErrCorrupt) || !strings.Contains(err.Error(), "segment 0") {
			t.Errorf("%s: strict Reader: err = %v, want format.ErrCorrupt for segment 0", name, err)
		}

		r, err = NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{Salvage: true})
		if err != nil {
			t.Fatalf("%s: salvage NewReader: %v", name, err)
		}
		got, err := io.ReadAll(r)
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: salvage Reader: %d bytes, err %v", name, len(got), err)
		}
		if cs := r.CorruptSegments(); len(cs) != 1 || cs[0].Index != 0 || !errors.Is(cs[0], format.ErrCorrupt) {
			t.Errorf("%s: salvage recorded %v, want one ErrCorrupt region at segment 0", name, cs)
		}

		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
			t.Errorf("%s: readers allocated %d bytes refusing the frame", name, d)
		}
	}
}

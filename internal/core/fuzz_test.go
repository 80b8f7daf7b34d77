package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/gpu"
)

// TestDecompressNeverPanicsOnRandomContainers drives the public entry
// point with random and half-valid containers: any outcome but a panic.
func TestDecompressNeverPanicsOnRandomContainers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	// Pure garbage.
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(256)
		garbage := make([]byte, n)
		rng.Read(garbage)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on garbage: %v", trial, r)
				}
			}()
			_, _ = Decompress(garbage, Params{})
		}()
	}

	// Valid magic + garbage body.
	for trial := 0; trial < 1000; trial++ {
		n := 5 + rng.Intn(256)
		buf := make([]byte, n)
		rng.Read(buf)
		copy(buf, format.Magic)
		buf[4] = format.Version
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on magic+garbage: %v", trial, r)
				}
			}()
			_, _ = Decompress(buf, Params{})
		}()
	}

	// Valid container with mutations.
	base, _, err := CompressCodec([]byte("fuzz seed content fuzz seed content fuzz"), "v1", Params{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on mutated container: %v", trial, r)
				}
			}()
			_, _ = Decompress(corrupt, Params{})
		}()
	}
}

// FuzzDecompress is a native fuzz target over the container parser and
// all decoders (run with `go test -fuzz=FuzzDecompress ./internal/core`).
func FuzzDecompress(f *testing.F) {
	seedA, _, _ := CompressCodec([]byte("seed one: some compressible compressible data"), "v1", Params{})
	seedB, _, _ := CompressCodec([]byte("seed two"), "cpu", Params{})
	f.Add(seedA)
	f.Add(seedB)
	f.Add([]byte(format.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(data, Params{})
	})
}

// FuzzStreamReader drives the framed Reader over arbitrary bytes on a
// two-worker pipeline, strict and with salvage+repair (run with
// `go test -fuzz=FuzzStreamReader ./internal/core`). Invariants: no
// panic, the reader terminates, and it never delivers more plaintext
// than the frames it accepted claim.
func FuzzStreamReader(f *testing.F) {
	text := datasets.CFiles(24<<10, 3)
	for _, o := range []StreamOptions{
		{Codec: "v1", SegmentSize: 8 << 10},
		{Codec: "cpu", SegmentSize: 8 << 10, Parity: ParityConfig{K: 4, M: 2}},
	} {
		var buf bytes.Buffer
		w := NewWriterOptions(&buf, Params{HostWorkers: 2}, o)
		if _, err := w.Write(text); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(forgedFrameStream(format.CodecSerialBitPacked))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(format.StreamMagic)) {
			return // bare containers are FuzzDecompress's
		}
		for _, o := range []ReaderOptions{{}, {Salvage: true, Repair: true}} {
			accepted := 0
			o.HostWorkers = 2
			o.OnSegment = func(_, rawLen int, _ *gpu.Report) { accepted += rawLen }
			r, err := NewReaderOptions(bytes.NewReader(data), Params{}, o)
			if err != nil {
				continue
			}
			n, _ := io.Copy(io.Discard, r)
			r.Close()
			if n > int64(accepted) {
				t.Fatalf("repair=%v: delivered %d bytes, accepted frames claim %d", o.Repair, n, accepted)
			}
		}
	})
}

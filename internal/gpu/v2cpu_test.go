package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestCompressV2CPUBitIdentical is the twin contract: for every data
// shape the host encoder must reproduce the V2 kernel's container
// byte-for-byte — same tiled match records, same greedy selection, same
// header — because a stream may interleave device and degraded segments
// and parity covers exact frame bytes.
func TestCompressV2CPUBitIdentical(t *testing.T) {
	inputs := map[string][]byte{
		"empty":       {},
		"one-byte":    {0x7},
		"zeros":       make([]byte, 12<<10),
		"cfiles":      datasets.CFiles(64<<10, 9),
		"random":      randomBytes(16<<10, 10),
		"demap":       datasets.DEMap(20<<10+7, 11),
		"chunk-edge":  datasets.KernelTarball(4097, 12),
		"sub-chunk":   datasets.KernelTarball(777, 13),
		"repetitive":  bytes.Repeat([]byte("xyzzy"), 3000),
		"small-prime": datasets.Dictionary(8191, 14),
	}
	optVariants := map[string]Options{
		"defaults":  {},
		"tpb-64":    {ThreadsPerBlock: 64},
		"chunk-1k":  {ChunkSize: 1 << 10},
		"window-64": {Config: lzss.Config{Window: 64, MaxMatch: 130, MinMatch: 3}},
	}
	for dn, data := range inputs {
		for on, opts := range optVariants {
			t.Run(fmt.Sprintf("%s/%s", dn, on), func(t *testing.T) {
				want, _, err := CompressV2(data, opts)
				if err != nil {
					t.Fatalf("CompressV2: %v", err)
				}
				got, err := CompressV2CPU(data, opts)
				if err != nil {
					t.Fatalf("CompressV2CPU: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("CPU twin differs from kernel output: %d vs %d bytes", len(got), len(want))
				}
				out, _, err := Decompress(got, Options{})
				if err != nil || !bytes.Equal(out, data) {
					t.Fatalf("round trip: %v", err)
				}
				h, _, err := format.ParseHeader(got)
				if err != nil || h.Codec != format.CodecCULZSSV2 {
					t.Fatalf("twin container codec %v, err %v", h.Codec, err)
				}
			})
		}
	}
}

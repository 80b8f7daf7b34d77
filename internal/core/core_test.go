package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"culzss/internal/codec"
	"culzss/internal/datasets"
	"culzss/internal/format"
)

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"gateway", "compress", "network", "bandwidth", "storage", "payload"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func TestInitDetectsDevice(t *testing.T) {
	info := Init()
	if info.Device == nil || info.CUDACores != 480 {
		t.Fatalf("Init() = %+v", info)
	}
}

func TestCompressDecompressAllVersions(t *testing.T) {
	input := genText(96<<10, 1)
	for _, v := range []string{"v1", "v2", "cpu", "pthread", "bzip2", codec.Auto} {
		comp, _, err := CompressCodec(input, v, Params{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(comp) >= len(input) {
			t.Fatalf("%v: no compression (%d -> %d)", v, len(input), len(comp))
		}
		got, err := Decompress(comp, Params{})
		if err != nil {
			t.Fatalf("%v: decompress: %v", v, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("%v: round trip mismatch", v)
		}
	}
}

func TestCompressedContainersCarryRightCodec(t *testing.T) {
	input := genText(16<<10, 2)
	cases := map[string]format.Codec{
		"v1":      format.CodecCULZSSV1,
		"v2":      format.CodecCULZSSV2,
		"cpu":     format.CodecSerialBitPacked,
		"pthread": format.CodecChunkedBitPacked,
		"bzip2":   format.CodecBZip2,
		"raw":     format.CodecStoreRaw,
	}
	for v, want := range cases {
		comp, _, err := CompressCodec(input, v, Params{})
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := format.ParseHeader(comp)
		if err != nil {
			t.Fatal(err)
		}
		if h.Codec != want {
			t.Errorf("%v produced %v, want %v", v, h.Codec, want)
		}
	}
}

func TestSelectVersionFollowsPaperGuidance(t *testing.T) {
	// Compress routes by the adaptive selector; the container's codec
	// byte records the engine it picked.
	random := make([]byte, 128<<10)
	rand.New(rand.NewSource(7)).Read(random)
	for _, c := range []struct {
		name string
		data []byte
		want format.Codec
	}{
		// Highly compressible (Table II: 13.5%) -> V1.
		{"highly-compressible", datasets.HighlyCompressible(128<<10, 3), format.CodecCULZSSV1},
		// DE-map-like data (34%) -> V1.
		{"DE map", datasets.DEMap(128<<10, 4), format.CodecCULZSSV1},
		// ~50%+ text -> V2.
		{"C files", datasets.CFiles(128<<10, 5), format.CodecCULZSSV2},
		{"dictionary", datasets.Dictionary(128<<10, 6), format.CodecCULZSSV2},
		// Incompressible -> stored raw; so is empty input.
		{"random", random, format.CodecStoreRaw},
		{"empty", nil, format.CodecStoreRaw},
	} {
		comp, err := Compress(c.data, Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h, _, err := format.ParseHeader(comp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h.Codec != c.want {
			t.Errorf("Compress(%s) used %v, want %v", c.name, h.Codec, c.want)
		}
	}
}

func TestTuningOverrides(t *testing.T) {
	input := genText(32<<10, 7)
	// Window override for GPU engines (§VII tuning API).
	comp, _, err := CompressCodec(input, "v1", Params{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Window != 64 {
		t.Fatalf("window = %d, want 64", h.Window)
	}
	// Oversized GPU window must be rejected.
	if _, _, err := CompressCodec(input, "v2", Params{Window: 1024}); err == nil {
		t.Fatal("accepted window 1024 on GPU engine")
	}
	// CPU serial accepts large windows.
	comp, _, err = CompressCodec(input, "cpu", Params{Window: 8192})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp, Params{})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("serial 8 KiB window round trip failed: %v", err)
	}
}

func TestDecompressDispatchesBZip2(t *testing.T) {
	// A bzip2 container from the baseline package must open through the
	// same Decompress call.
	input := genText(64<<10, 8)
	comp := mustBZip2(t, input)
	got, err := Decompress(comp, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("bzip2 dispatch round trip mismatch")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not a container"), Params{}); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestCompressRejectsUnknownVersion(t *testing.T) {
	if _, _, err := CompressCodec([]byte("x"), "v42", Params{}); err == nil {
		t.Fatal("accepted unknown codec")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.dat")
	cz := filepath.Join(dir, "in.dat.clz")
	back := filepath.Join(dir, "out.dat")
	input := genText(48<<10, 9)
	if err := os.WriteFile(src, input, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CompressFile(src, cz, Params{}); err != nil {
		t.Fatal(err)
	}
	if err := DecompressFile(cz, back, Params{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("file round trip mismatch")
	}
	if err := CompressFile(filepath.Join(dir, "missing"), cz, Params{}); err == nil {
		t.Fatal("compressed a missing file")
	}
}

func TestStreamingAdapters(t *testing.T) {
	input := genText(64<<10, 10)
	var netBuf bytes.Buffer
	w := NewWriter(&netBuf, Params{})
	half := len(input) / 2
	if _, err := w.Write(input[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(input[half:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("more")); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close must be a no-op returning nil, got %v", err)
	}
	if netBuf.Len() >= len(input) {
		t.Fatal("stream not compressed")
	}

	r, err := NewReader(&netBuf, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestQuickRoundTripAllVersions(t *testing.T) {
	for _, v := range []string{"v1", "v2", "cpu", "pthread", "raw", codec.Auto} {
		f := func(data []byte) bool {
			comp, _, err := CompressCodec(data, v, Params{})
			if err != nil {
				return false
			}
			got, err := Decompress(comp, Params{})
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

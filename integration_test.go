package culzss

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"io"
	"testing"

	"culzss/internal/bzip2"
	"culzss/internal/bzip2/bzfile"
	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/gpu"
)

// TestEndToEndEveryVersionEveryDataset is the repository-wide integration
// sweep: every implementation compresses every dataset, every container
// opens through the codec-dispatching public API, and the bytes survive.
func TestEndToEndEveryVersionEveryDataset(t *testing.T) {
	const n = 64 << 10
	versions := []string{"v1", "v2", "cpu", "pthread", "bzip2", "raw", codec.Auto}
	for _, ds := range datasets.All() {
		data := ds.Gen(n, 4242)
		for _, v := range versions {
			comp, _, err := core.CompressCodec(data, v, core.Params{})
			if err != nil {
				t.Fatalf("%s/%v: %v", ds.Name, v, err)
			}
			got, err := core.Decompress(comp, core.Params{})
			if err != nil {
				t.Fatalf("%s/%v: decompress: %v", ds.Name, v, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%v: round trip mismatch", ds.Name, v)
			}
		}
	}
}

// TestCrossImplementationAgreement pins the wire-level relationships the
// repository guarantees between implementations.
func TestCrossImplementationAgreement(t *testing.T) {
	data := datasets.KernelTarball(96<<10, 777)

	// Each GPU kernel == its byte-identical host twin (the degrade
	// target) == the registry engine behind the public API.
	for _, c := range []struct {
		name   string
		kernel func([]byte, gpu.Options) ([]byte, *gpu.Report, error)
		twin   func([]byte, gpu.Options) ([]byte, error)
	}{
		{"v1", gpu.CompressV1, gpu.CompressV1CPU},
		{"v2", gpu.CompressV2, gpu.CompressV2CPU},
	} {
		base, _, err := c.kernel(data, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := c.twin(data, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		api, _, err := core.CompressCodec(data, c.name, core.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, twin) {
			t.Errorf("%s: host twin container differs from the kernel's", c.name)
		}
		if !bytes.Equal(base, api) {
			t.Errorf("%s: core.CompressCodec container differs from the kernel's", c.name)
		}
	}
}

// TestBZip2FamilyConsistency ties the internal bzip2 baseline to the
// interchange writer: both run the same pipeline, and the interchange
// stream must decode with the standard library.
func TestBZip2FamilyConsistency(t *testing.T) {
	data := datasets.CFiles(256<<10, 31337)

	internal, err := bzip2.Compress(data, bzip2.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := bzip2.Decompress(internal, 0)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("internal container round trip failed: %v", err)
	}

	var bz bytes.Buffer
	if err := bzfile.Encode(&bz, data, 9); err != nil {
		t.Fatal(err)
	}
	bzLen := bz.Len() // the reader below drains the buffer
	std, err := io.ReadAll(stdbzip2.NewReader(&bz))
	if err != nil || !bytes.Equal(std, data) {
		t.Fatalf(".bz2 interchange round trip failed: %v", err)
	}

	// The two serialisations of the same pipeline should land within a
	// few percent of each other in size.
	a, b := float64(len(internal)), float64(bzLen)
	if a/b > 1.15 || b/a > 1.15 {
		t.Errorf("container (%d) and .bz2 (%d) sizes diverge beyond framing differences", len(internal), bzLen)
	}
}

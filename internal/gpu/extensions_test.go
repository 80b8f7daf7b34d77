package gpu

import (
	"bytes"
	"testing"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
)

// --- Legacy device preset ------------------------------------------------

func TestTeslaC1060Preset(t *testing.T) {
	d := cudasim.TeslaC1060()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.LegacyBankSemantics {
		t.Fatal("C1060 must use legacy bank semantics")
	}
	if d.SMs*d.CoresPerSM != 240 {
		t.Fatalf("C1060 core count = %d, want 240", d.SMs*d.CoresPerSM)
	}
	// The whole pipeline still runs on the legacy part.
	input := datasets.CFiles(32<<10, 28)
	cont, rep, err := CompressV2(input, Options{Device: d})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(cont, Options{Device: d})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("C1060 round trip failed: %v", err)
	}
	if rep.Launch.KernelTime <= 0 {
		t.Fatal("no kernel time")
	}
}

func TestDeviceClone(t *testing.T) {
	a := cudasim.FermiGTX480()
	b := a.Clone()
	b.SMs = 1
	if a.SMs == 1 {
		t.Fatal("Clone aliases the original")
	}
}

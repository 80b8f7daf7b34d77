package harness

import (
	"fmt"
	"time"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/lzss"
	"culzss/internal/stats"
)

// The paper's §V/§VII future-work experiments, evaluated as extension
// tables.

// ExtensionAutoSelection evaluates the adaptive selector (codec.Auto)
// against always-V1 and always-V2 across the datasets (§V: "This feature
// gives the ability to use the best matching implementation"). An oracle
// column shows what a perfect per-dataset choice would cost. A raw-store
// pick launches no kernel, so its auto cell shows "-".
func ExtensionAutoSelection(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — automatic version selection (§V)",
		Columns: []string{"dataset", "V1 sat", "V2 sat", "auto picks", "auto sat", "oracle"},
		Notes:   []string{"Saturated simulated totals; 'auto picks' is the sample probe of codec.SelectCodec."},
	}
	for _, ds := range datasets.All() {
		data := ds.Gen(cfg.Size, cfg.Seed)
		_, r1, err := gpu.CompressV1(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		_, r2, err := gpu.CompressV2(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		var pick, autoCell string
		switch codec.SelectCodec(data) {
		case format.CodecCULZSSV1:
			pick, autoCell = "V1", r1.SaturatedTotal().Round(time.Microsecond).String()
		case format.CodecCULZSSV2:
			pick, autoCell = "V2", r2.SaturatedTotal().Round(time.Microsecond).String()
		default:
			pick, autoCell = "raw", "-"
		}
		oracle := r1
		if r2.SaturatedTotal() < r1.SaturatedTotal() {
			oracle = r2
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			r1.SaturatedTotal().Round(time.Microsecond).String(),
			r2.SaturatedTotal().Round(time.Microsecond).String(),
			pick,
			autoCell,
			oracle.SaturatedTotal().Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// ExtensionDeviceSweep runs both kernels on two simulated GPU generations
// — the paper's GTX 480 and a GT200-era Tesla C1060 — showing how the
// architecture (core count, bank semantics, bandwidth) moves the numbers.
// A sensitivity analysis the paper could not run (one testbed).
func ExtensionDeviceSweep(cfg Config) (*Table, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	t := &Table{
		Title:   "Extension — device generation sweep (C files)",
		Columns: []string{"device", "V1 sat", "V2 sat", "V2/V1"},
		Notes:   []string{"Same kernels, different simulated parts; saturated totals."},
	}
	devices := []*cudasim.Device{cudasim.FermiGTX480(), cudasim.TeslaC1060()}
	for _, dev := range devices {
		// V1's per-thread buffers do not fit a 16 KiB part at 128
		// threads (the paper's §V limitation) — step the block width
		// down until the launch is resident.
		var r1 *gpu.Report
		tpb1 := 128
		for ; tpb1 >= 32; tpb1 /= 2 {
			var err error
			if _, r1, err = gpu.CompressV1(data, gpu.Options{Device: dev, ThreadsPerBlock: tpb1}); err == nil {
				break
			}
			r1 = nil
		}
		if r1 == nil {
			return nil, fmt.Errorf("harness: V1 fits no block width on %s", dev.Name)
		}
		_, r2, err := gpu.CompressV2(data, gpu.Options{Device: dev, ThreadsPerBlock: 128})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (V1 tpb=%d)", dev.Name, tpb1),
			r1.SaturatedTotal().Round(time.Microsecond).String(),
			r2.SaturatedTotal().Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", float64(r2.SaturatedTotal())/float64(r1.SaturatedTotal())),
		})
	}
	return t, nil
}

// ExtensionOptimalParse compares the paper's greedy parse against the
// minimum-cost (dynamic-programming) parse at the V2 configuration — a
// §VII "improvements on the LZSS algorithm" item. Same decoder, strictly
// never-worse output.
func ExtensionOptimalParse(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — greedy vs optimal parsing (V2 configuration)",
		Columns: []string{"dataset", "greedy ratio", "optimal ratio", "saved"},
		Notes:   []string{"Minimum-cost tokenisation via backward DP; identical wire format."},
	}
	lz := lzss.CULZSSV2()
	for _, ds := range datasets.All() {
		data := ds.Gen(cfg.Size, cfg.Seed)
		greedy, err := lzss.EncodeByteAligned(data, lz, lzss.SearchHashChain, nil)
		if err != nil {
			return nil, err
		}
		optimal, err := lzss.EncodeByteAlignedOptimal(data, lz, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			stats.RatioPercent(len(greedy), len(data)),
			stats.RatioPercent(len(optimal), len(data)),
			fmt.Sprintf("%.2f%%", (1-float64(len(optimal))/float64(len(greedy)))*100),
		})
	}
	return t, nil
}

// Command cubench regenerates the paper's evaluation: Tables I–III,
// Figure 4, and the §III.D ablations, over the five synthetic datasets.
//
// Usage:
//
//	cubench                                    run everything at defaults
//	cubench -size 16MiB -reps 3                the full grid, bigger input
//	cubench -table 1 -size 8MiB                only Table I
//	cubench -figure 4                          only Figure 4
//	cubench -ablation shared,tpb,window        selected ablations
//	cubench -ablation codec                    per-segment codec routing table
//	cubench -serial-search hashchain           fast serial baseline (§VII)
//	cubench -json > BENCH_10.json              machine-readable bench report
//	cubench -json -against BENCH_10.json       fail on >25% throughput regression
//
// CPU rows are wall-clock on this host; CULZSS rows are the cudasim
// GTX 480 model's simulated end-to-end times. Each GPU cell also reports
// the saturated-device time when the grid under-fills the simulated GPU
// (inputs below ~32 MiB do for V1). See EXPERIMENTS.md for the comparison
// against the paper's 128 MB numbers.
//
// -json switches to the bench-regression mode: the compression grid runs
// on the deterministic Modeled timing basis (operation counters at a
// fixed modeled clock — identical numbers on any host) and is emitted as
// JSON {dataset, system, ns_per_op, sim_ms, ratio_pct}. With -against,
// the run is additionally compared to a committed baseline report and
// the command exits non-zero when any cell's time regressed by more than
// -tolerance. CI's bench-smoke job gates on exactly this.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"culzss/internal/cliutil"
	"culzss/internal/harness"
	"culzss/internal/lzss"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cubench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubench", flag.ContinueOnError)
	var (
		sizeStr      = fs.String("size", "4MiB", "bytes per dataset (e.g. 8MiB, 128MB)")
		saturated    = fs.Bool("saturated", true, "report GPU cells at saturated-device time (see EXPERIMENTS.md)")
		reps         = fs.Int("reps", 1, "repetitions per cell (paper used 10)")
		seed         = fs.Int64("seed", 0, "dataset generator seed (0 = default)")
		workers      = fs.Int("workers", 0, "pthread-version worker count (0 = GOMAXPROCS)")
		tables       = fs.String("table", "", "comma list of tables to run: 1,2,3 (empty with no -figure/-ablation = all)")
		figures      = fs.String("figure", "", "comma list of figures: 4")
		ablations    = fs.String("ablation", "", "comma list: shared,tpb,window,bank,search,autoselect,devices,parse,decode,codec")
		serialSearch = fs.String("serial-search", "brute", "serial baseline matcher: brute (paper) or hashchain (§VII)")
		quiet        = fs.Bool("q", false, "suppress per-cell progress on stderr")
		asCSV        = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		asJSON       = fs.Bool("json", false, "emit a bench-regression JSON report (modeled timing basis) instead of tables")
		against      = fs.String("against", "", "baseline bench JSON to compare -json run against; exits non-zero on regression")
		tolerance    = fs.Float64("tolerance", 0.25, "relative time regression -against tolerates per cell")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	size, err := cliutil.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	cfg := harness.Config{Size: size, Reps: *reps, Seed: *seed, Workers: *workers, Saturated: *saturated}
	switch strings.ToLower(*serialSearch) {
	case "brute", "":
		cfg.SerialSearch = lzss.SearchBrute
	case "hashchain", "hash":
		cfg.SerialSearch = lzss.SearchHashChain
	default:
		return fmt.Errorf("unknown -serial-search %q", *serialSearch)
	}
	if !*quiet {
		cfg.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}

	if *asJSON || *against != "" {
		return runBench(cfg, *serialSearch, *against, *tolerance, out)
	}

	wantAll := *tables == "" && *figures == "" && *ablations == ""
	want := func(list, item string) bool {
		if wantAll {
			return true
		}
		for _, x := range strings.Split(list, ",") {
			if strings.TrimSpace(x) == item {
				return true
			}
		}
		return false
	}

	start := time.Now()
	render := func(t *harness.Table) string {
		if *asCSV {
			return t.CSV()
		}
		return t.Render()
	}
	if !*asCSV {
		fmt.Fprintf(out, "CULZSS paper reproduction — %s per dataset, %d rep(s), serial matcher: %s\n\n",
			*sizeStr, *reps, cfg.SerialSearch)
	}

	needCompressionGrid := want(*tables, "1") || want(*tables, "2") || want(*figures, "4")
	var grid *harness.Matrix
	if needCompressionGrid {
		grid, err = harness.RunCompression(cfg)
		if err != nil {
			return err
		}
	}
	if want(*tables, "1") {
		fmt.Fprintln(out, render(harness.TableI(grid)))
	}
	if want(*tables, "2") {
		fmt.Fprintln(out, render(harness.TableII(grid)))
	}
	if want(*tables, "3") {
		dm, err := harness.RunDecompression(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(harness.TableIII(dm)))
	}
	if want(*figures, "4") {
		fmt.Fprintln(out, render(harness.Figure4(grid)))
	}

	type ablation struct {
		key string
		run func(harness.Config) (*harness.Table, error)
	}
	for _, a := range []ablation{
		{"shared", harness.AblationSharedMemory},
		{"tpb", harness.AblationThreadsPerBlock},
		{"window", harness.AblationWindowSize},
		{"bank", harness.AblationBankSkew},
		{"search", harness.AblationSearchAlgorithm},
		{"autoselect", harness.ExtensionAutoSelection},
		{"devices", harness.ExtensionDeviceSweep},
		{"parse", harness.ExtensionOptimalParse},
		{"decode", harness.ExtensionParallelDecode},
		{"codec", harness.AblationCodec},
	} {
		if !want(*ablations, a.key) {
			continue
		}
		t, err := a.run(cfg)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", a.key, err)
		}
		fmt.Fprintln(out, render(t))
	}

	if !*asCSV {
		fmt.Fprintf(out, "completed in %v\n", time.Since(start).Round(time.Second))
	}
	return nil
}

// runBench is the -json / -against mode: the compression grid on the
// deterministic Modeled basis, emitted as a JSON report and optionally
// gated against a committed baseline.
func runBench(cfg harness.Config, searchName, against string, tolerance float64, out io.Writer) error {
	cfg.Modeled = true
	cfg = cfg.Filled()
	m, err := harness.RunCompression(cfg)
	if err != nil {
		return err
	}
	rep := harness.BenchFromMatrix(m, harness.BenchConfig{
		Size:         cfg.Size,
		Reps:         cfg.Reps,
		Seed:         cfg.Seed,
		SerialSearch: strings.ToLower(searchName),
		Saturated:    cfg.Saturated,
		Modeled:      true,
	})
	decodeCells, err := harness.ReaderDecodeCells(cfg, []int{1, 8})
	if err != nil {
		return err
	}
	rep.Cells = append(rep.Cells, decodeCells...)
	writerCells, err := harness.WriterCodecCells(cfg, []string{"v1", "v2", "auto"})
	if err != nil {
		return err
	}
	rep.Cells = append(rep.Cells, writerCells...)
	rep.Sort()
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	if against == "" {
		return nil
	}
	f, err := os.Open(against)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := harness.ReadBenchReport(f)
	if err != nil {
		return err
	}
	if regs := rep.Compare(base, tolerance); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "cubench: REGRESSION:", r)
		}
		return fmt.Errorf("%d cell(s) regressed beyond %.0f%% vs %s", len(regs), tolerance*100, against)
	}
	fmt.Fprintf(os.Stderr, "cubench: no regression vs %s (%d cells, tolerance %.0f%%)\n",
		against, len(base.Cells), tolerance*100)
	return nil
}

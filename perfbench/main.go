// Command perfbench is culzss's wall-clock benchmark. It runs one named
// workload built from a seed, checks every output byte for byte, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run plus a replay of each layer (--trace 1). The last line of
// standard output is one JSON object; README.md describes the workloads
// and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"culzss/internal/format"
	"culzss/internal/obs"
)

// metricDef is one reported metric: its name, unit and better direction,
// exactly as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"compress_MBps", "MB/s", "higher"},
	{"decompress_MBps", "MB/s", "higher"},
	{"compress_ratio", "B/B", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"alloc_bytes_per_byte", "B/B", "lower"},
	{"peak_rss_MiB", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"lzss.v1.search_MBps", "MB/s", "higher"},
	{"lzss.v2.search_MBps", "MB/s", "higher"},
	{"lzss.comparisons", "count", "lower"},
	{"lzss.offsets", "count", "lower"},
	{"codec.v1.compress_MBps", "MB/s", "higher"},
	{"codec.v2.compress_MBps", "MB/s", "higher"},
	{"codec.raw.compress_MBps", "MB/s", "higher"},
	{"cudasim.overhead_frac", "frac", "lower"},
	{"cudasim.v1.overhead_frac", "frac", "lower"},
	{"cudasim.v2.overhead_frac", "frac", "lower"},
	{"gpu.host_post_ms", "ms", "lower"},
	{"gpu.modeled_device_ms", "ms", "lower"},
	{"codec.select_ms", "ms", "lower"},
	{"codec.select.v1", "count", "higher"},
	{"codec.select.v2", "count", "higher"},
	{"codec.select.raw", "count", "higher"},
	{"codec.v1.decompress_MBps", "MB/s", "higher"},
	{"codec.v2.decompress_MBps", "MB/s", "higher"},
	{"codec.raw.decompress_MBps", "MB/s", "higher"},
	{"format.frame_crc_MBps", "MB/s", "higher"},
	{"ecc.parity_ms", "ms", "lower"},
	{"ecc.reconstruct_ms", "ms", "lower"},
	{"durable.commits", "count", "lower"},
	{"durable.commit_p50_ms", "ms", "lower"},
	{"durable.commit_p99_ms", "ms", "lower"},
	{"core.writer.write_wait_ms", "ms", "lower"},
	{"core.writer.close_ms", "ms", "lower"},
	{"core.writer.emit_gap_p99_ms", "ms", "lower"},
	{"core.writer.segments.v1", "count", "higher"},
	{"core.writer.segments.v2", "count", "higher"},
	{"core.writer.segments.raw", "count", "higher"},
	{"core.writer.retries", "count", "lower"},
	{"core.writer.degraded", "count", "lower"},
	{"core.writer.pool_hit_ratio", "frac", "higher"},
	{"core.reader.pool_hit_ratio", "frac", "higher"},
	{"core.reader.read_wait_ms", "ms", "lower"},
	{"core.reader.first_byte_ms", "ms", "lower"},
	{"core.reader.max_inflight", "count", "lower"},
	{"core.new_us", "us", "lower"},
	{"core.cpu_busy_frac", "frac", "higher"},
	{"gc.cycles", "count", "lower"},
	{"gc.cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: bulk_compress, bulk_decode or gateway")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	traced := flag.Int("trace", 0, "1 runs the traced phase and the replay and prints the per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for temporary outputs and the span dump")
	flag.Parse()

	rep, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *scratch, defaultScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up setupReps times, warms it up, measures it
// untraced and, when traced, measures it again with tracing on and
// replays the unit.
func run(workload string, seed int64, seconds time.Duration, traced bool, scratch string, sc scale) (*report, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if traced {
		seconds /= 2 // the untraced and the traced phase share the run's time
	}
	b := &bench{name: workload, sc: sc, seed: seed, seconds: seconds, dir: dir, procs: runtime.NumCPU()}
	var setups []float64
	for i := 0; i < sc.setupReps; i++ {
		t := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		runtime.GC() // each phase starts from the set-up's live heap alone
	}

	fmt.Printf("# set-up times %.3f s, median reported\n", setups)
	if !resetPeakRSS() {
		fmt.Println("# peak_rss_MiB: the RSS high-water mark cannot be reset here; it covers the whole process")
	}
	// Warm up untimed: pools, the GC's heap goal and the cores' clocks
	// settle before the first timed operation. Its outputs are checked
	// like any other.
	warm := *b
	warm.seconds = sc.warmup
	warm.sc.minPasses, warm.sc.minRequests = 1, 1
	wp := warm.measure(nil, nil)
	for _, e := range wp.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed (warm-up):", e)
	}
	base := b.measure(nil, nil)
	fmt.Printf("# %s seed %d: %d operations timed, %d latency samples in %d window(s), %d damaged on the wire, %d failed\n",
		workload, seed, base.attempted, len(base.opLat), len(base.latP99), base.damagedReqs, base.failed)
	for _, e := range base.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	base.attempted += wp.attempted
	base.failed += wp.failed
	if !traced {
		return &report{Correct: base.failed == 0, Attempted: base.attempted, Failed: base.failed,
			Metrics: endToEndMetrics(base, median(setups))}, nil
	}

	tr := newTracer()
	reg := obs.NewRegistry()
	runtime.GC()
	before := snapRuntime()
	ph := b.measure(tr, reg)
	after := snapRuntime()
	for _, e := range ph.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed (traced):", e)
	}
	rep := &report{Attempted: base.attempted + ph.attempted + 1, Failed: base.failed + ph.failed}
	spans, events := tr.snapshot()
	views := streams(spans, events)
	var problems []error
	worst, err := checkBusy(views, runtime.GOMAXPROCS(0))
	if err != nil {
		problems = append(problems, err)
	}
	fmt.Printf("# layer busy / (wall × GOMAXPROCS): at most %.3f per stream\n", worst)
	if err := reconcile(base, ph); err != nil {
		problems = append(problems, err)
	}
	rp, err := replay(&ph.unit)
	if err != nil {
		problems = append(problems, fmt.Errorf("replay: %w", err))
	} else if rp.search != ph.unit.search {
		problems = append(problems, fmt.Errorf("replay search counters %+v, pipeline %+v", rp.search, ph.unit.search))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	if len(problems) > 0 {
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0
	if rp == nil {
		rp = &replayResult{}
	}
	rep.Metrics = perLayerMetrics(b, base, ph, rp, reg, views, before, after)

	path := filepath.Join(scratch, fmt.Sprintf("perfbench-trace-%s-%d.json", workload, seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans, %d events written to %s\n", len(spans), len(events), path)
	return rep, nil
}

// reconcile checks that tracing changed nothing the program decided: the
// traced unit routed every segment to the same codec, wrote the same
// frame lengths and counted the same search work as the untraced one.
func reconcile(base, traced *phase) error {
	a, b := base.unit, traced.unit
	if a.search != b.search {
		return fmt.Errorf("search counters: untraced %+v, traced %+v", a.search, b.search)
	}
	if len(a.streams) != len(b.streams) {
		return fmt.Errorf("unit streams: untraced %d, traced %d", len(a.streams), len(b.streams))
	}
	for i := range a.streams {
		if !slices.Equal(a.streams[i].segs, b.streams[i].segs) {
			return fmt.Errorf("unit stream %d: segments differ between untraced and traced runs", i)
		}
	}
	return nil
}

func endToEndMetrics(ph *phase, setup float64) map[string]metricValue {
	ratio := 0.0
	if ph.inBytes > 0 {
		ratio = float64(ph.outBytes) / float64(ph.inBytes)
	}
	alloc := 0.0
	if ph.plain > 0 {
		alloc = float64(ph.alloc) / float64(ph.plain)
	}
	perSec := 0.0
	if ph.wall > 0 {
		perSec = float64(len(ph.opLat)) / ph.wall.Seconds()
	}
	return values(endToEnd, map[string]float64{
		"setup_s":              setup,
		"compress_MBps":        median(ph.compRates),
		"decompress_MBps":      median(ph.decRates),
		"compress_ratio":       ratio,
		"req_p50_ms":           median(ph.latP50),
		"req_p99_ms":           median(ph.latP99),
		"req_per_s":            perSec,
		"alloc_bytes_per_byte": alloc,
		"peak_rss_MiB":         ph.peakMiB,
	})
}

// values attaches units to v, one entry per definition.
func values(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

func perLayerMetrics(b *bench, base, ph *phase, rp *replayResult, reg *obs.Registry, views []streamView, before, after runtimeSnap) map[string]metricValue {
	v := map[string]float64{}
	rate := func(t *codecTally) float64 {
		if t == nil {
			return 0
		}
		return mbps(t.bytes, t.time)
	}
	overhead := func(cs ...format.Codec) float64 {
		var twin, eng time.Duration
		for _, c := range cs {
			if rp.twin[c] != nil {
				twin += rp.twin[c].time
				eng += rp.engine[c].time
			}
		}
		if eng == 0 {
			return 0
		}
		return 1 - float64(twin)/float64(eng)
	}
	v1, v2, raw := format.CodecCULZSSV1, format.CodecCULZSSV2, format.CodecStoreRaw

	// Replay of each layer's public function over the unit.
	v["lzss.v1.search_MBps"] = rate(rp.twin[v1])
	v["lzss.v2.search_MBps"] = rate(rp.twin[v2])
	v["lzss.comparisons"] = float64(rp.search.Comparisons)
	v["lzss.offsets"] = float64(rp.search.Offsets)
	v["codec.v1.compress_MBps"] = rate(rp.engine[v1])
	v["codec.v2.compress_MBps"] = rate(rp.engine[v2])
	v["codec.raw.compress_MBps"] = rate(rp.engine[raw])
	v["cudasim.overhead_frac"] = overhead(v1, v2)
	v["cudasim.v1.overhead_frac"] = overhead(v1)
	v["cudasim.v2.overhead_frac"] = overhead(v2)
	v["gpu.host_post_ms"] = ms(rp.hostPost)
	v["gpu.modeled_device_ms"] = ms(rp.modeled)
	if n := rp.selects[v1] + rp.selects[v2] + rp.selects[raw]; n > 0 {
		v["codec.select_ms"] = ms(rp.selectTime) / float64(n)
	}
	v["codec.select.v1"] = float64(rp.selects[v1])
	v["codec.select.v2"] = float64(rp.selects[v2])
	v["codec.select.raw"] = float64(rp.selects[raw])
	v["codec.v1.decompress_MBps"] = rate(rp.decode[v1])
	v["codec.v2.decompress_MBps"] = rate(rp.decode[v2])
	v["codec.raw.decompress_MBps"] = rate(rp.decode[raw])
	v["format.frame_crc_MBps"] = rate(&rp.frame)
	if rp.groups > 0 {
		v["ecc.parity_ms"] = ms(rp.parity) / float64(rp.groups)
	}
	if rp.reconCount > 0 {
		v["ecc.reconstruct_ms"] = ms(rp.recon) / float64(rp.reconCount)
	}

	// The program's own counters, read from the registry.
	var compressStreams int
	for _, s := range views {
		if s.root.Name == "compress" {
			compressStreams++
		}
	}
	if compressStreams > 0 && b.name == "bulk_compress" {
		v["durable.commits"] = float64(reg.Counter("culzss_durable_commits_total").Value()) / float64(compressStreams)
	}
	commits := reg.Histogram("culzss_commit_seconds").Snapshot()
	v["durable.commit_p50_ms"] = commits.Quantile(0.50) * 1e3
	v["durable.commit_p99_ms"] = commits.Quantile(0.99) * 1e3
	hits := reg.Counter("culzss_bufpool_hits_total", obs.L("pool", "writer-segment")).Value()
	misses := reg.Counter("culzss_bufpool_misses_total", obs.L("pool", "writer-segment")).Value()
	if hits+misses > 0 {
		v["core.writer.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if n := ph.reader.hits + ph.reader.misses; n > 0 {
		v["core.reader.pool_hit_ratio"] = float64(ph.reader.hits) / float64(n)
	}
	v["core.reader.max_inflight"] = float64(ph.reader.maxInFlight)
	v["core.writer.retries"] = float64(ph.retries)
	v["core.writer.degraded"] = float64(ph.degraded)
	counts := ph.unit.codecCounts()
	v["core.writer.segments.v1"] = float64(counts[v1])
	v["core.writer.segments.v2"] = float64(counts[v2])
	v["core.writer.segments.raw"] = float64(counts[raw])

	// The benchmark's own spans and events.
	var writeWait, closeT, readWait, firstByte, newW, newR, gaps []float64
	for _, s := range views {
		switch s.root.Name {
		case "compress":
			writeWait = append(writeWait, ms(s.sum("Writer.Write")))
			closeT = append(closeT, ms(s.sum("Writer.Close")))
			var last int64 = -1
			for _, e := range s.events {
				if e.Kind == "emit" {
					if last >= 0 {
						gaps = append(gaps, ms(time.Duration(e.T-last)))
					}
					last = e.T
				}
			}
			newW = append(newW, float64(s.sum("durable.Create")+s.sum("Writer.New"))/1e3)
		case "decode":
			readWait = append(readWait, ms(s.sum("Reader.Read")))
			if at, ok := s.firstEnd("Reader.Read"); ok {
				firstByte = append(firstByte, ms(at))
			}
			newR = append(newR, float64(s.sum("Reader.New"))/1e3)
		}
	}
	v["core.writer.write_wait_ms"] = median(writeWait)
	v["core.writer.close_ms"] = median(closeT)
	v["core.writer.emit_gap_p99_ms"] = quantile(gaps, 0.99)
	v["core.reader.read_wait_ms"] = median(readWait)
	v["core.reader.first_byte_ms"] = median(firstByte)
	v["core.new_us"] = median(newW) + median(newR)

	// Process counters over the traced phase.
	wall := after.wall.Sub(before.wall)
	v["core.cpu_busy_frac"] = float64(after.cpu-before.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	if len(views) > 0 {
		v["gc.cycles"] = float64(after.numGC-before.numGC) / float64(len(views))
	}
	if all := after.allCPU - before.allCPU; all > 0 {
		v["gc.cpu_frac"] = (after.gcCPU - before.gcCPU) / all
	}
	if ph.primary > 0 {
		v["trace.overhead_frac"] = base.primary/ph.primary - 1
	}
	return values(perLayer, v)
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"culzss/internal/core"
	"culzss/internal/obs"
)

// tinyScale keeps every workload's shape (segments per cycle, parity
// groups, damaged requests) at sizes a unit test can afford.
var tinyScale = scale{
	segSize: 32 << 10, segments: 6, piece: 8 << 10,
	bulkParity: core.ParityConfig{K: 4, M: 2}, commitEvery: 2, minPasses: 1, checkDecodes: 1,
	gwSegments: 6, gwSegSize: 8 << 10, gwParity: core.ParityConfig{K: 4, M: 2},
	minPayload: 512, maxPayload: 24 << 10,
	schedule: 64, burstGap: 16 << 10, minRequests: 24, unitRequests: 12,
	setupReps: 1,
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a := makeCorpus(7, 4096, 12)
	if len(a) != 4096*12 {
		t.Fatalf("corpus is %d bytes, want %d", len(a), 4096*12)
	}
	if !bytes.Equal(a, makeCorpus(7, 4096, 12)) {
		t.Fatal("same seed built two different corpora")
	}
	if bytes.Equal(a, makeCorpus(8, 4096, 12)) {
		t.Fatal("different seeds built the same corpus")
	}

	s1 := makeSchedule(7, 4096, 12, 512, 4<<10, 480)
	s2 := makeSchedule(7, 4096, 12, 512, 4<<10, 480)
	s3 := makeSchedule(8, 4096, 12, 512, 4<<10, 480)
	below := 0
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("request %d differs between runs of one seed: %+v vs %+v", i, s1[i], s2[i])
		}
		if r := s1[i]; r.n < 512 || r.n > 4<<10 || r.off < 0 || r.off+r.n > len(a) || r.damageU < 0 || r.damageU >= 1 {
			t.Fatalf("request %d out of range: %+v", i, r)
		}
		if s1[i].damageU < 0.1 {
			below++
		}
	}
	// A request of wire length L is damaged when damageU < L/burstGap, so
	// damageU must fall below a threshold p close to p of the time.
	if below < 40 || below > 56 {
		t.Fatalf("%d of %d requests have damageU < 0.1; want about 48", below, len(s1))
	}
	same := true
	for i := range s1 {
		same = same && s1[i] == s3[i]
	}
	if same {
		t.Fatal("different seeds drew the same schedule")
	}
}

// TestSmokeEveryMetric runs each workload at tiny size, untraced and
// traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := run(w, 3, 0, traced, t.TempDir(), tinyScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, g, d)
			}
		}
	}
}

// TestReplayReconciles checks that the traced run routes and searches
// exactly like the untraced one, and that the per-layer replay
// reproduces both: the same codec per segment, the same search counters,
// and one reconstruction per damaged frame.
func TestReplayReconciles(t *testing.T) {
	for _, w := range []string{"bulk_compress", "gateway"} {
		b := &bench{name: w, sc: tinyScale, seed: 5, dir: t.TempDir(), procs: runtime.NumCPU()}
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		base := b.measure(nil, nil)
		traced := b.measure(newTracer(), obs.NewRegistry())
		if base.failed != 0 || traced.failed != 0 {
			t.Fatalf("%s: failures %v %v", w, base.errs, traced.errs)
		}
		if err := reconcile(base, traced); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		rp, err := replay(&traced.unit)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rp.search != base.unit.search {
			t.Errorf("%s: replay search %+v, untraced pipeline %+v", w, rp.search, base.unit.search)
		}
		counts := base.unit.codecCounts()
		for c, n := range rp.selects {
			if counts[c] != n {
				t.Errorf("%s: codec %v: replay selected %d segments, pipeline wrote %d", w, c, n, counts[c])
			}
		}
		if len(counts) < 2 {
			t.Errorf("%s: unit routed to %d codec(s); the corpus should mix codecs", w, len(counts))
		}
		damaged := 0
		for _, s := range traced.unit.streams {
			damaged += len(s.damaged)
		}
		if rp.reconCount != damaged {
			t.Errorf("%s: replay reconstructed %d frames, wire damaged %d", w, rp.reconCount, damaged)
		}
		if w == "gateway" && damaged == 0 {
			t.Errorf("gateway unit has no damaged requests; the repair path went unexercised")
		}
	}
}

// TestBusyWithinWall checks the trace's sanity bound on a real traced
// run, and that the bound rejects a stream whose calls claim more time
// than it had.
func TestBusyWithinWall(t *testing.T) {
	b := &bench{name: "gateway", sc: tinyScale, seed: 9, dir: t.TempDir(), procs: runtime.NumCPU()}
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	b.measure(tr, obs.NewRegistry())
	views := streams(tr.snapshot())
	if len(views) < 2*tinyScale.minRequests {
		t.Fatalf("%d traced streams, want at least %d", len(views), 2*tinyScale.minRequests)
	}
	worst, err := checkBusy(views, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if worst <= 0 {
		t.Fatalf("highest busy share %v; the traced streams recorded no busy time", worst)
	}
	host := int64(0)
	for _, v := range views {
		for _, e := range v.events {
			host += e.Host
		}
	}
	if host == 0 {
		t.Fatal("no segment reported a host step; the worker side of the busy sum is empty")
	}

	// One call spanning the whole stream plus worker host steps worth
	// another 1.5 walls: within a 4-proc budget, over a 2-proc one.
	over := streamView{root: span{Stream: 1, Start: 0, End: 100},
		children: []span{{Stream: 1, Parent: 1, Start: 0, End: 100}},
		events:   []event{{Stream: 1, T: 50, Host: 75}, {Stream: 1, T: 60, Host: 75}}}
	if _, err := checkBusy([]streamView{over}, 4); err != nil {
		t.Fatalf("2.5 walls of busy time failed the 4-proc bound: %v", err)
	}
	if _, err := checkBusy([]streamView{over}, 2); err == nil {
		t.Fatal("2.5 walls of busy time passed the 2-proc bound")
	}
}

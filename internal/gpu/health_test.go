package gpu_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/gpu"
	"culzss/internal/health"
)

// v1 and v2 are the production registry engines: the same values the
// Writer and core.CompressCodec hand to the supervised dispatch ladder.
var (
	v1, _ = codec.ByName("v1")
	v2, _ = codec.ByName("v2")
)

// deadDevice returns a device whose every launch fails.
func deadDevice() *cudasim.Device {
	d := cudasim.FermiGTX480()
	d.LaunchHook = func(ctx context.Context, kernel string) error {
		return errors.New("injected: device fell off the bus")
	}
	return d
}

// hangDevice returns a device whose every launch hangs until the
// caller's context is cancelled — the wedged-kernel failure mode. The
// hang goes through the fault-injection layer's latency rule so the
// production plumbing (hook -> FaultCtx -> timer vs ctx) is what the
// watchdog actually cuts.
func hangDevice(seed int64) *cudasim.Device {
	d := cudasim.FermiGTX480()
	inj := faults.New(seed).Hang(faults.SiteLaunch, time.Hour)
	d.LaunchHook = inj.LaunchHook()
	return d
}

// poolRun is one supervised V1 compression of each part, part i homed on
// pool slot i (the way core.Writer spreads segments over the pool).
type poolRun struct {
	containers [][]byte
	degraded   int
	onDevice   int
}

// superviseParts compresses every part through gpu.CompressSupervised and
// checks each container is byte-identical to the healthy single-device
// V1 output.
func superviseParts(t *testing.T, parts [][]byte, opts gpu.Options) poolRun {
	t.Helper()
	var run poolRun
	for i, part := range parts {
		want, _, err := gpu.CompressV1(part, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, rep, degraded, err := gpu.CompressSupervised(v1, part, opts, i%opts.Health.Devices(), fmt.Sprintf("segment %d", i))
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("part %d: supervised container differs from healthy single-device output", i)
		}
		if degraded {
			if rep != nil {
				t.Fatalf("part %d: degraded run returned a device report", i)
			}
			run.degraded++
		} else {
			run.onDevice++
		}
		run.containers = append(run.containers, got)
	}
	return run
}

// split cuts data into n near-equal parts.
func split(data []byte, n int) [][]byte {
	parts := make([][]byte, 0, n)
	per := (len(data) + n - 1) / n
	for lo := 0; lo < len(data); lo += per {
		hi := min(lo+per, len(data))
		parts = append(parts, data[lo:hi])
	}
	return parts
}

// --- supervised dispatch over a multi-GPU pool -------------------------

func TestMultiGPUSupervisedSurvivesDeadDevice(t *testing.T) {
	input := datasets.CFiles(96<<10, 31)
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})

	run := superviseParts(t, split(input, 2), gpu.Options{Health: sup})
	snap := sup.Snapshot()
	if snap.Redispatched == 0 {
		t.Fatalf("no redispatch recorded: %+v", snap)
	}
	if snap.BreakerOpens == 0 || snap.Quarantined != 1 {
		t.Fatalf("breaker bookkeeping: %+v", snap)
	}
	if run.degraded != 0 {
		t.Fatalf("healthy sibling available, yet %d parts degraded", run.degraded)
	}
	if sup.State(0) != health.Open {
		t.Fatalf("dead device state %v, want open", sup.State(0))
	}
	for i, c := range run.containers {
		if _, _, err := gpu.Decompress(c, gpu.Options{}); err != nil {
			t.Fatalf("part %d round trip: %v", i, err)
		}
	}
}

func TestMultiGPUOutputMatchesSingle(t *testing.T) {
	// A healthy three-device pool: every part runs on a device (none
	// degrades) and comes out byte-identical to the single-device run.
	input := datasets.KernelTarball(96<<10, 22)
	sup := health.NewPool(cudasim.FermiGTX480(), 3, health.Policy{Threshold: 1, OpenFor: time.Hour})
	run := superviseParts(t, split(input, 3), gpu.Options{Health: sup})
	if run.onDevice != 3 {
		t.Fatalf("healthy pool: %d of 3 parts ran on a device", run.onDevice)
	}
	if snap := sup.Snapshot(); snap.Redispatched != 0 || snap.BreakerOpens != 0 {
		t.Fatalf("healthy pool recorded failures: %+v", snap)
	}
}

func TestMultiGPUSupervisedWatchdogCutsHungDevice(t *testing.T) {
	input := datasets.CFiles(64<<10, 32)
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: hangDevice(gpu.TestSeed(7))},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Deadline: 2 * time.Second})

	start := time.Now()
	superviseParts(t, split(input, 2), gpu.Options{Health: sup})
	elapsed := time.Since(start)
	if snap := sup.Snapshot(); snap.TimedOut == 0 {
		t.Fatalf("hung launch was not watchdog-cut: %+v", snap)
	}
	// The hang is injected at one hour; completion in test time proves
	// the watchdog cut it at its deadline, not the test runner's.
	if elapsed > 30*time.Second {
		t.Fatalf("run took %v; the hang leaked past the watchdog", elapsed)
	}
	var timedOut bool
	for _, ev := range sup.Events() {
		if ev.To == health.Open && strings.Contains(ev.Cause, "watchdog timeout") {
			timedOut = true
		}
	}
	if !timedOut {
		t.Fatalf("logbook lacks a watchdog-caused open: %v", sup.Events())
	}
}

func TestMultiGPUSupervisedChaosMix(t *testing.T) {
	// The acceptance scenario: one device fails every launch, one hangs;
	// only the third is healthy. Every part must match the healthy
	// single-device container exactly.
	input := datasets.DEMap(96<<10, 33)
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: hangDevice(gpu.TestSeed(7))},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Deadline: 2 * time.Second})

	superviseParts(t, split(input, 3), gpu.Options{Health: sup})
	if snap := sup.Snapshot(); snap.Redispatched == 0 || snap.TimedOut == 0 || snap.Quarantined != 2 {
		t.Fatalf("chaos counters: %+v", snap)
	}
}

func TestMultiGPUAllDevicesSickDegradesToCPU(t *testing.T) {
	input := datasets.CFiles(48<<10, 34)
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: deadDevice()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})

	run := superviseParts(t, split(input, 2), gpu.Options{Health: sup})
	if run.degraded != 2 || run.onDevice != 0 {
		t.Fatalf("whole pool dead: %d degraded, %d on a device; want every part degraded", run.degraded, run.onDevice)
	}
	if snap := sup.Snapshot(); snap.Quarantined != 2 {
		t.Fatalf("pool snapshot: %+v", snap)
	}
}

func TestMultiGPUQuarantinedDeviceReprobes(t *testing.T) {
	// A device that fails its first two launches then recovers: the
	// breaker opens, quarantine elapses, a half-open probe succeeds and
	// the device rejoins the pool.
	flaky := cudasim.FermiGTX480()
	inj := faults.New(gpu.TestSeed(7)).FailFirst(faults.SiteLaunch, 2)
	flaky.LaunchHook = inj.LaunchHook()
	sup := health.NewSupervisor([]health.DeviceSlot{{Device: flaky}},
		health.Policy{Threshold: 1, OpenFor: 10 * time.Millisecond})

	input := datasets.CFiles(16<<10, 35)
	// First run: the only device fails, opens, and the work degrades.
	run := superviseParts(t, [][]byte{input}, gpu.Options{Health: sup})
	if run.degraded != 1 {
		t.Fatalf("first run should degrade: %+v", run)
	}
	time.Sleep(20 * time.Millisecond) // quarantine elapses
	// Later runs probe the recovered device (injection budget spent on
	// run one's attempt + the ladder's retry) and close the breaker.
	for i := 0; i < 3 && sup.State(0) != health.Closed; i++ {
		superviseParts(t, [][]byte{input}, gpu.Options{Health: sup})
		time.Sleep(20 * time.Millisecond)
	}
	if sup.State(0) != health.Closed {
		t.Fatalf("recovered device state %v, want closed; events: %v", sup.State(0), sup.Events())
	}
	var sawHalfOpen bool
	for _, ev := range sup.Events() {
		if ev.To == health.HalfOpen {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Fatalf("logbook lacks half-open transition: %v", sup.Events())
	}
}

func TestMultiGPUCancelBetweenShards(t *testing.T) {
	// The caller's cancellation stops the pool walk: the error is the
	// context's, no device is charged, and the work does not degrade.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup := health.NewPool(cudasim.FermiGTX480(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour})
	input := datasets.CFiles(32<<10, 36)
	_, _, degraded, err := gpu.CompressSupervised(v1, input, gpu.Options{Context: ctx, Health: sup}, -1, "cancelled")
	if !errors.Is(err, context.Canceled) || degraded {
		t.Fatalf("err = %v degraded = %v, want context.Canceled and no degrade", err, degraded)
	}
	if snap := sup.Snapshot(); snap.BreakerOpens != 0 || snap.Redispatched != 0 {
		t.Fatalf("caller cancellation was charged to the pool: %+v", snap)
	}
}

func TestMultiGPURejectsOversizedConfig(t *testing.T) {
	// A configuration no kernel accepts fails on every device and on the
	// CPU twin alike: the ladder must surface the error rather than emit
	// a malformed container.
	sup := health.NewPool(cudasim.FermiGTX480(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour})
	cfg := gpu.Options{Health: sup}
	cfg.Config.Window, cfg.Config.MaxMatch, cfg.Config.MinMatch = 512, 18, 3
	_, _, _, err := gpu.CompressSupervised(v1, datasets.CFiles(16<<10, 5), cfg, 0, "oversized")
	if err == nil {
		t.Fatal("oversized config accepted")
	}
	if !strings.Contains(err.Error(), "cpu fallback") {
		t.Fatalf("error does not name the exhausted ladder: %v", err)
	}
}

// TestCompressV2SupervisedRedispatchesAndDegrades exercises the generic
// dispatch ladder under the V2 engine: a dead home device redispatches
// to the healthy sibling (byte-identical output, no degrade); an
// all-dead pool degrades to CompressV2CPU, still byte-identical.
func TestCompressV2SupervisedRedispatchesAndDegrades(t *testing.T) {
	input := datasets.CFiles(48<<10, 21)
	want, _, err := gpu.CompressV2(input, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})
	got, rep, degraded, err := gpu.CompressSupervised(v2, input, gpu.Options{Health: sup}, 0, "v2 work")
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("healthy sibling available, yet the work degraded")
	}
	if rep == nil {
		t.Fatal("device-path success returned a nil report")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("redispatched container differs from healthy single-device output")
	}
	if snap := sup.Snapshot(); snap.Redispatched == 0 {
		t.Fatalf("no redispatch recorded: %+v", snap)
	}

	allDead := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: deadDevice()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})
	got, rep, degraded, err = gpu.CompressSupervised(v2, input, gpu.Options{Health: allDead}, -1, "v2 work")
	if err != nil {
		t.Fatal(err)
	}
	if !degraded || rep != nil {
		t.Fatalf("all-dead pool: degraded=%v rep=%v, want CPU degrade", degraded, rep)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded container differs from device output — the twin is not bit-identical")
	}
}

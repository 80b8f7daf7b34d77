// Package core is the CULZSS library surface — the in-memory compression
// API of the paper's Figure 2, with the codec registry as the paper's
// "version on the API call" (§V), the tuning knobs promised in §VII
// (window size, threads per block), file I/O helpers for the
// standalone-program mode, and io.Reader/io.Writer streaming adapters.
//
// The paper's interface is
//
//	Gpu_init(); Gpu_compress(buf, len, out, params); Gpu_decompress(...)
//
// which maps here to Init (device detection), Compress / CompressCodec /
// Decompress, and Params. Compress routes through the adaptive selector
// (codec.Auto: V2, V1 or raw-store by a sample probe); CompressCodec names
// the engine instead. Decompress dispatches on the container's codec, so
// any stream produced by this repository — GPU V1/V2, serial, pthread,
// bzip2, raw-store — opens with the same call.
package core

import (
	"context"
	"fmt"
	"os"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// Params are the compression parameters of the paper's API. The zero
// value is ready to use: the paper's defaults (4 KiB chunks, 128
// threads/block, 128-byte window) under whichever engine the call routes
// to.
type Params struct {
	// ChunkSize is the per-chunk granularity; 0 means the engine's
	// default (4 KiB for the GPU kernels, 256 KiB for the CPU parallel).
	ChunkSize int
	// ThreadsPerBlock is the GPU block width; 0 means 128 (§III.D).
	ThreadsPerBlock int
	// Window overrides the sliding-window size (§VII's tuning API);
	// 0 means the engine's preset. GPU engines accept at most 256.
	Window int
	// MaxMatch overrides the maximum match length; 0 means the preset.
	MaxMatch int
	// Device is the simulated GPU; nil uses the device detected by Init.
	Device *cudasim.Device
	// HostWorkers bounds host-side parallelism; 0 means GOMAXPROCS.
	HostWorkers int
	// Stats, when non-nil, accumulates search statistics.
	Stats *lzss.SearchStats
	// Injector, when non-nil, arms the seeded fault-injection layer
	// (internal/faults) on the GPU paths: kernel launches, simulated
	// transfers, and per-chunk decode probe it for injected failures.
	// Production callers leave it nil; the nil Injector is inert.
	Injector *faults.Injector
	// Health, when non-nil, supervises the GPU paths with a device pool:
	// accelerated compressions route over healthy devices through per-device
	// circuit breakers and the watchdog, re-dispatching failures and
	// degrading to the byte-identical host encoder when the whole pool is
	// quarantined. The streaming Writer additionally reports the
	// supervisor's counters through Stats. Nil keeps the legacy
	// single-device fail-fast dispatch.
	Health *health.Supervisor
	// Obs, when non-nil, mirrors the run into the observability layer
	// (internal/obs): the GPU paths report launch counters and stage
	// timings, the streaming Writer/Reader report segment counters and
	// lifecycle spans, and the health supervisor's counters appear when
	// its Policy carries the same registry. Nil is inert — production
	// paths that never arm it pay a pointer test.
	Obs *obs.Registry
}

// Info describes the detected (simulated) device, the paper's
// "library gets initialized when loaded, detects GPUs, and determines
// capabilities" step.
type Info struct {
	Device      *cudasim.Device
	CUDACores   int
	SharedPerSM int
}

// Init performs device detection and returns the capability report.
func Init() *Info {
	d := cudasim.FermiGTX480()
	return &Info{Device: d, CUDACores: d.SMs * d.CoresPerSM, SharedPerSM: d.SharedMemPerSM}
}

// gpuConfig assembles the LZSS configuration for a GPU codec, applying
// the tuning overrides.
func (p *Params) gpuConfig(c format.Codec) (lzss.Config, error) {
	cfg := lzss.CULZSSV1()
	if c == format.CodecCULZSSV2 {
		cfg = lzss.CULZSSV2()
	}
	if p.Window > 0 {
		cfg.Window = p.Window
	}
	if p.MaxMatch > 0 {
		cfg.MaxMatch = p.MaxMatch
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Window > 256 {
		return cfg, fmt.Errorf("core: GPU codecs need window <= 256, got %d", cfg.Window)
	}
	return cfg, nil
}

// cpuConfig assembles the LZSS configuration for the CPU codecs.
func (p *Params) cpuConfig() (lzss.Config, error) {
	cfg := lzss.Dipperstein()
	if p.Window > 0 {
		cfg.Window = p.Window
	}
	if p.MaxMatch > 0 {
		cfg.MaxMatch = p.MaxMatch
	}
	return cfg, cfg.Validate()
}

// Compress compresses data in memory per the paper's Gpu_compress: the
// returned buffer is a self-describing container. The engine is chosen
// per input by the adaptive selector (codec.Auto); CompressCodec names
// it instead and also returns the device report.
func Compress(data []byte, p Params) ([]byte, error) {
	out, _, err := CompressCodec(data, codec.Auto, p)
	return out, err
}

// Decompress expands any container produced by this repository,
// dispatching on the recorded codec.
func Decompress(container []byte, p Params) ([]byte, error) {
	out, _, err := DecompressWithReport(container, p)
	return out, err
}

// DecompressWithReport additionally returns the GPU report for GPU-coded
// containers (nil otherwise).
func DecompressWithReport(container []byte, p Params) ([]byte, *gpu.Report, error) {
	return decompressInto(nil, container, p, nil, p.HostWorkers, -1)
}

// decompressInto is the decode core shared by Decompress and the
// streaming Reader's pipeline workers: Decompress with a caller-provided
// output buffer (honoured by the GPU codecs — the CPU codecs allocate
// their own), an explicit host-worker bound, and a cancellation context
// threaded through to the simulated device. A nil ctx means no
// cancellation; workers <= 0 means GOMAXPROCS (the gpu layer's default).
// A container whose header claims other than want plaintext bytes (a
// frame's RawLen; -1 when unknown) is refused before its codec sizes an
// output buffer from the claim.
func decompressInto(dst, container []byte, p Params, ctx context.Context, workers, want int) ([]byte, *gpu.Report, error) {
	h, _, err := format.ParseHeader(container)
	if err != nil {
		return nil, nil, err
	}
	if want >= 0 && h.OriginalLen != want {
		return nil, nil, fmt.Errorf("%w: container claims %d plaintext bytes, frame claims %d", format.ErrCorrupt, h.OriginalLen, want)
	}
	eng, ok := codec.Lookup(h.Codec)
	if !ok {
		return nil, nil, &codec.UnknownCodecError{Codec: h.Codec}
	}
	return eng.DecompressInto(dst, container, gpu.Options{
		Device: p.Device, ThreadsPerBlock: p.ThreadsPerBlock, HostWorkers: workers,
		Injector: p.Injector, Obs: p.Obs, Context: ctx,
	})
}

// ErrUnknownCodec re-exports the registry's sentinel: Decompress (and the
// streaming Reader) return an error matching it — and carrying the codec
// value via *codec.UnknownCodecError — when a container's codec byte is
// structurally valid but no registered engine claims it.
var ErrUnknownCodec = codec.ErrUnknownCodec

// engineOptions maps Params onto the gpu.Options an engine consumes,
// resolving the LZSS configuration preset that matches the engine's
// codec family (GPU presets for V1/V2, the Dipperstein preset for the
// bit-packed CPU codecs; bzip2 and raw take no LZSS config).
func (p *Params) engineOptions(eng codec.Engine) (gpu.Options, error) {
	opts := gpu.Options{
		Device:          p.Device,
		ChunkSize:       p.ChunkSize,
		ThreadsPerBlock: p.ThreadsPerBlock,
		HostWorkers:     p.HostWorkers,
		Stats:           p.Stats,
		Injector:        p.Injector,
		Health:          p.Health,
		Obs:             p.Obs,
	}
	var err error
	switch eng.Codec() {
	case format.CodecCULZSSV1, format.CodecCULZSSV2:
		opts.Config, err = p.gpuConfig(eng.Codec())
	case format.CodecSerialBitPacked, format.CodecChunkedBitPacked:
		opts.Config, err = p.cpuConfig()
	}
	return opts, err
}

// CompressCodec compresses data with a registry engine chosen by name
// ("v1", "v2", "cpu", "pthread", "bzip2", "raw"), or adaptively per
// input when name is codec.Auto. Accelerated engines ride the supervised
// dispatch ladder when Params.Health is armed. The report is the device
// run's (nil for host engines and for a degraded run).
func CompressCodec(data []byte, name string, p Params) ([]byte, *gpu.Report, error) {
	eng, err := resolveEngine(name, data)
	if err != nil {
		return nil, nil, err
	}
	opts, err := p.engineOptions(eng)
	if err != nil {
		return nil, nil, err
	}
	if eng.Accelerated() {
		cont, rep, _, err := gpu.CompressSupervised(eng, data, opts, -1, "compress")
		return cont, rep, err
	}
	return eng.Compress(data, opts)
}

// resolveEngine maps a StreamOptions.Codec / CLI codec name to an engine,
// running the adaptive selector for codec.Auto.
func resolveEngine(name string, data []byte) (codec.Engine, error) {
	if name == codec.Auto {
		return codec.Select(data), nil
	}
	eng, ok := codec.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown codec %q (registered: %v, or %q)", name, codec.Names(), codec.Auto)
	}
	return eng, nil
}

// CompressFile is the standalone I/O mode: it reads src, compresses with
// p, and writes the container to dst.
func CompressFile(src, dst string, p Params) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	out, err := Compress(data, p)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, out, 0o644)
}

// DecompressFile reads a container from src and writes the expansion to
// dst.
func DecompressFile(src, dst string, p Params) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	out, err := Decompress(data, p)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, out, 0o644)
}

package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/durable"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// scale holds every size the workloads use. defaultScale is what the
// benchmark runs; tests shrink it.
type scale struct {
	segSize  int // bulk segment size
	segments int // corpus length in segments (whole cycles of six)
	piece    int // bytes per Write / Read call

	bulkParity   core.ParityConfig
	commitEvery  int // durable commit cadence in segments
	minPasses    int // bulk passes per phase, at least
	checkDecodes int // decodes of each bulk_compress output, timed apart from the compress
	gwSegments   int // gateway corpus length in segments
	gwSegSize    int
	gwParity     core.ParityConfig
	minPayload   int
	maxPayload   int
	schedule     int // gateway schedule length (cycled)
	burstGap     int // mean wire bytes per damage burst on the gateway hop
	minRequests  int // gateway requests per phase, at least
	unitRequests int // gateway requests counted and replayed per-layer
	setupReps    int
	warmup       time.Duration // untimed run of the workload before the timed part
}

var defaultScale = scale{
	segSize: 1 << 20, segments: 12, piece: 64 << 10,
	bulkParity: core.ParityConfig{K: 8, M: 2}, commitEvery: 4, minPasses: 2, checkDecodes: 3,
	gwSegments: 36, gwSegSize: 64 << 10, gwParity: core.ParityConfig{K: 4, M: 2},
	minPayload: 1 << 10, maxPayload: 256 << 10,
	schedule: 4096, burstGap: 512 << 10, minRequests: 1000, unitRequests: 128,
	setupReps: 3, warmup: 3 * time.Second,
}

// frameHeaderMax bounds a segment frame's header (marker, three varints,
// CRC): wire damage placed past it always lands in the container bytes.
const frameHeaderMax = 24

// burstLen is the bytes one wire-damage burst flips, as in the gateway
// example's hostile-wire model.
const burstLen = 97

// segRecord is what the Writer's OnSegment reported for one segment.
type segRecord struct {
	codec    format.Codec
	frameLen int
}

// unitStream is one stream of the per-layer unit: its plaintext, the
// Writer's per-segment reports, and the segments damaged on the wire.
type unitStream struct {
	plain   []byte
	segSize int
	segs    []segRecord
	damaged []int
}

// unit is the fixed slice of work per-layer counts and the replay cover:
// one pass for the bulk workloads, the first unitRequests requests for
// the gateway. It is the same on every run of a seed.
type unit struct {
	parity  core.ParityConfig
	streams []unitStream
	search  lzss.SearchStats // Params.Stats summed over the unit's streams
}

func (u *unit) codecCounts() map[format.Codec]int {
	n := map[format.Codec]int{}
	for _, s := range u.streams {
		for _, r := range s.segs {
			n[r.codec]++
		}
	}
	return n
}

// phase is what one timed measurement observed.
type phase struct {
	attempted, failed int
	errs              []string

	wall      time.Duration // timed wall time (sum over passes for bulk)
	plain     int           // plaintext bytes through the timed part
	alloc     uint64        // Go heap bytes allocated in the timed part
	opLat     []float64     // ms per operation
	latP50    []float64     // per pass or request window: median opLat, ms
	latP99    []float64     // per pass or request window: p99 opLat, ms
	peakMiB   float64       // peak RSS over the timed part
	compRates []float64     // MB/s samples
	decRates  []float64     // MB/s samples
	outBytes  int           // compressed bytes written, for the ratio
	inBytes   int           // plaintext bytes behind outBytes
	primary   float64       // the workload's headline rate, for trace overhead

	retries, degraded int
	damagedReqs       int // gateway requests damaged on the wire
	reader            readerTally
	unit              unit
}

type readerTally struct {
	hits, misses int64
	maxInFlight  int
}

func (t *readerTally) add(st core.ReaderStats) {
	t.hits += st.PoolHits
	t.misses += st.PoolMisses
	if st.MaxInFlight > t.maxInFlight {
		t.maxInFlight = st.MaxInFlight
	}
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// addPass records the operation latencies of one bulk pass.
func (p *phase) addPass(lat []float64) {
	p.opLat = append(p.opLat, lat...)
	p.addWindow(lat)
}

// addWindow records the latency quantiles of one pass or request window.
// The end-to-end p50 and p99 are medians over windows: a tail taken over
// a whole run would follow its slowest stretch of host time.
func (p *phase) addWindow(lat []float64) {
	p.latP50 = append(p.latP50, quantile(lat, 0.50))
	p.latP99 = append(p.latP99, quantile(lat, 0.99))
}

// latWindow is the gateway's window in requests for latencies and rates:
// five schedule blocks, so every window has the same mix of datasets,
// sizes and damage.
var latWindow = 5 * len(cycle) * sizeStrata

// bench is one workload run: its inputs, built from the seed in set-up,
// and the settings every phase shares.
type bench struct {
	name    string
	sc      scale
	seed    int64
	seconds time.Duration
	dir     string // scratch directory for durable outputs
	procs   int

	corpus   []byte
	stream   []byte      // bulk_decode: the framed stream bulk_compress writes
	segs     []segRecord // bulk_decode: its per-segment reports
	search   lzss.SearchStats
	schedule []request
	setupMBs []float64 // bulk_decode: compress MB/s of each set-up build
}

var workloadNames = []string{"bulk_compress", "bulk_decode", "gateway"}

// setup builds the workload's inputs from the seed. It runs several
// times per benchmark run so its time can be reported as a median.
func (b *bench) setup() error {
	segments := b.sc.segments
	if b.name == "gateway" {
		segments = b.sc.gwSegments
	}
	b.corpus = makeCorpus(b.seed, b.sc.segSize, segments)
	switch b.name {
	case "bulk_decode":
		var buf bytes.Buffer
		var segs []segRecord
		var search lzss.SearchStats
		start := time.Now()
		w := core.NewWriterOptions(&buf, core.Params{HostWorkers: b.procs, Stats: &search}, b.bulkStream(func(sr core.SegmentReport) {
			segs = append(segs, segRecord{sr.Codec, sr.FrameLen})
		}))
		if err := writePieces(w, b.corpus, b.sc.piece); err != nil {
			return fmt.Errorf("building the bulk stream: %w", err)
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("building the bulk stream: %w", err)
		}
		b.setupMBs = append(b.setupMBs, mbps(len(b.corpus), time.Since(start)))
		b.stream, b.segs, b.search = buf.Bytes(), segs, search
	case "gateway":
		b.schedule = makeSchedule(b.seed, b.sc.segSize, segments, b.sc.minPayload, b.sc.maxPayload, b.sc.schedule)
	}
	return nil
}

// bulkStream is the stream configuration of both bulk workloads.
func (b *bench) bulkStream(onSeg func(core.SegmentReport)) core.StreamOptions {
	return core.StreamOptions{SegmentSize: b.sc.segSize, Codec: codec.Auto, Parity: b.sc.bulkParity, OnSegment: onSeg}
}

func writePieces(w io.Writer, data []byte, piece int) error {
	for off := 0; off < len(data); off += piece {
		if _, err := w.Write(data[off:min(off+piece, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the workload's timed part for b.seconds. With tr and reg
// non-nil the run is traced: spans around every public call, per-segment
// events, and the program's own counters in reg.
func (b *bench) measure(tr *tracer, reg *obs.Registry) *phase {
	switch b.name {
	case "bulk_compress":
		return b.measureCompress(tr, reg)
	case "bulk_decode":
		return b.measureDecode(tr, reg)
	default:
		return b.measureGateway(tr, reg)
	}
}

func (b *bench) measureCompress(tr *tracer, reg *obs.Registry) *phase {
	ph := &phase{}
	var ref uint32 // CRC of pass 0's file: every pass must write the same bytes
	start := time.Now()
	for pass := 0; pass < b.sc.minPasses || time.Since(start) < b.seconds; pass++ {
		ph.attempted++
		path := filepath.Join(b.dir, fmt.Sprintf("bulk-%d.clz", pass))
		var segs []segRecord
		var lat []float64
		var search lzss.SearchStats
		stream := pass*(1+b.sc.checkDecodes) + 1
		onSeg := func(sr core.SegmentReport) {
			segs = append(segs, segRecord{sr.Codec, sr.FrameLen})
			tr.event("emit", stream, sr.Index, codecName(sr.Codec), hostTime(sr.Report))
		}
		p := core.Params{HostWorkers: b.procs, Stats: &search, Obs: reg}
		o := durable.Options{CommitEverySegments: b.sc.commitEvery, Stream: b.bulkStream(onSeg)}

		resetPeakRSS() // the previous pass's check decodes do not count
		a0 := totalAlloc()
		t0 := time.Now()
		root := tr.open("compress", stream, 0)
		id := tr.open("durable.Create", stream, root)
		w, err := durable.Create(path, p, o)
		tr.close(id)
		if err != nil {
			tr.close(root)
			ph.fail("pass %d: create: %v", pass, err)
			continue
		}
		for off := 0; off < len(b.corpus) && err == nil; off += b.sc.piece {
			id := tr.open("Writer.Write", stream, root)
			ts := time.Now()
			_, err = w.Write(b.corpus[off:min(off+b.sc.piece, len(b.corpus))])
			lat = append(lat, ms(time.Since(ts)))
			tr.close(id)
		}
		id = tr.open("Writer.Close", stream, root)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		tr.close(id)
		tr.close(root)
		elapsed := time.Since(t0)
		ph.alloc += totalAlloc() - a0
		ph.peakMiB = max(ph.peakMiB, peakRSSMiB())
		if err != nil {
			ph.fail("pass %d: compress: %v", pass, err)
			continue
		}
		ph.wall += elapsed
		ph.plain += len(b.corpus)
		ph.compRates = append(ph.compRates, mbps(len(b.corpus), elapsed))
		ph.addPass(lat)

		// Untimed: check the stream, then decode it back (timed on its own).
		st := w.Stats()
		ph.retries += st.Retries
		ph.degraded += st.Degraded
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.Remove(path)
		}
		switch {
		case err != nil:
			ph.fail("pass %d: %v", pass, err)
			continue
		case st.Retries != 0 || st.Degraded != 0:
			ph.fail("pass %d: %d retries, %d degraded with no faults armed", pass, st.Retries, st.Degraded)
			continue
		case pass == 0:
			ref = crc32.ChecksumIEEE(data)
			ph.unit = unit{parity: b.sc.bulkParity, search: search,
				streams: []unitStream{{plain: b.corpus, segSize: b.sc.segSize, segs: segs}}}
		case crc32.ChecksumIEEE(data) != ref || search != ph.unit.search || !slices.Equal(segs, ph.unit.streams[0].segs):
			ph.fail("pass %d: output differs from pass 0 on the same input", pass)
			continue
		}
		ph.outBytes += len(data)
		ph.inBytes += len(b.corpus)
		for j := 1; j <= b.sc.checkDecodes; j++ {
			dec, err := b.decodePass(data, b.corpus, core.ReaderOptions{HostWorkers: b.procs}, nil, tr, stream+j, nil)
			if err != nil {
				ph.fail("pass %d: decode: %v", pass, err)
				break
			}
			ph.reader.add(dec.stats)
			ph.decRates = append(ph.decRates, mbps(len(b.corpus), dec.wall))
		}
	}
	ph.primary = median(ph.compRates)
	return ph
}

func (b *bench) measureDecode(tr *tracer, reg *obs.Registry) *phase {
	ph := &phase{compRates: b.setupMBs, outBytes: len(b.stream), inBytes: len(b.corpus)}
	ph.unit = unit{parity: b.sc.bulkParity, search: b.search,
		streams: []unitStream{{plain: b.corpus, segSize: b.sc.segSize, segs: b.segs}}}
	resetPeakRSS() // the set-up's builds do not count
	start := time.Now()
	for pass := 0; pass < b.sc.minPasses || time.Since(start) < b.seconds; pass++ {
		ph.attempted++
		var lat []float64
		a0 := totalAlloc()
		dec, err := b.decodePass(b.stream, b.corpus, core.ReaderOptions{HostWorkers: b.procs}, reg, tr, pass+1, &lat)
		ph.alloc += totalAlloc() - a0
		if err != nil {
			ph.fail("pass %d: %v", pass, err)
			continue
		}
		ph.addPass(lat)
		ph.reader.add(dec.stats)
		ph.wall += dec.wall
		ph.plain += len(b.corpus)
		ph.decRates = append(ph.decRates, mbps(len(b.corpus), dec.wall))
	}
	ph.peakMiB = peakRSSMiB()
	ph.primary = median(ph.decRates)
	return ph
}

type decodeResult struct {
	wall     time.Duration
	stats    core.ReaderStats
	repaired []int // segment indices the Reader rebuilt from parity
}

// decodePass decodes stream through a fresh Reader in piece-sized Read
// calls, checking every byte against want. lat, when non-nil, collects
// the latency of each Read call that returned data.
func (b *bench) decodePass(stream, want []byte, ro core.ReaderOptions, reg *obs.Registry, tr *tracer, id int, lat *[]float64) (decodeResult, error) {
	var res decodeResult
	ro.OnSegment = func(index, _ int, rep *gpu.Report) { tr.event("deliver", id, index, "", hostTime(rep)) }
	if ro.Repair {
		ro.OnRepair = func(rse *format.RepairedSegmentError) {
			res.repaired = append(res.repaired, rse.Frames...)
			tr.event("repair", id, rse.Index, "", 0)
		}
	}
	buf := make([]byte, b.sc.piece)
	root := tr.open("decode", id, 0)
	defer tr.close(root)
	t0 := time.Now()
	sp := tr.open("Reader.New", id, root)
	rd, err := core.NewReaderOptions(bytes.NewReader(stream), core.Params{Obs: reg}, ro)
	tr.close(sp)
	if err != nil {
		return res, err
	}
	defer rd.Close()
	pos := 0
	for {
		sp := tr.open("Reader.Read", id, root)
		ts := time.Now()
		n, err := rd.Read(buf)
		if n > 0 && lat != nil {
			*lat = append(*lat, ms(time.Since(ts)))
		}
		tr.close(sp)
		if n > 0 {
			if pos+n > len(want) || !bytes.Equal(buf[:n], want[pos:pos+n]) {
				return res, fmt.Errorf("plaintext differs at or after byte %d", pos)
			}
			pos += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.wall = time.Since(t0)
	res.stats = rd.Stats()
	if pos != len(want) {
		return res, fmt.Errorf("decoded %d of %d bytes", pos, len(want))
	}
	if res.stats.Corrupt != 0 {
		return res, fmt.Errorf("%d regions lost", res.stats.Corrupt)
	}
	return res, nil
}

// measureGateway runs a closed loop of one client, which sends its next
// request only after the previous one came back. One client keeps the
// request's own pipeline (Writer and Reader workers, up to GOMAXPROCS)
// the only load: more clients on a few cores would time the scheduler's
// interleaving of their pipelines rather than the program.
func (b *bench) measureGateway(tr *tracer, reg *obs.Registry) *phase {
	cl := &gwClient{b: b, tr: tr, reg: reg, ph: &phase{}}
	units := make([]unitStream, b.sc.unitRequests)
	searches := make([]lzss.SearchStats, b.sc.unitRequests)
	resetPeakRSS()
	a0 := totalAlloc()
	start := time.Now()
	for i := 0; i < b.sc.minRequests || time.Since(start) < b.seconds; i++ {
		us, search := cl.request(i, b.schedule[i%len(b.schedule)])
		if i < len(units) {
			units[i], searches[i] = us, search
		}
	}
	ph := cl.ph
	ph.wall = time.Since(start)
	ph.alloc = totalAlloc() - a0
	ph.peakMiB = peakRSSMiB()
	for _, r := range cl.reqs {
		ph.opLat = append(ph.opLat, ms(r.comp+r.dec))
	}
	for lo := 0; lo+latWindow <= len(cl.reqs) || lo == 0; lo += latWindow {
		w := cl.reqs[lo:min(lo+latWindow, len(cl.reqs))]
		ph.addWindow(ph.opLat[lo : lo+len(w)])
		var n int
		var comp, dec time.Duration
		for _, r := range w {
			n, comp, dec = n+r.n, comp+r.comp, dec+r.dec
		}
		ph.compRates = append(ph.compRates, mbps(n, comp))
		ph.decRates = append(ph.decRates, mbps(n, dec))
	}
	ph.primary = float64(len(ph.opLat)) / ph.wall.Seconds()
	ph.unit = unit{parity: b.sc.gwParity, streams: units}
	for _, s := range searches {
		ph.unit.search.Add(s)
	}
	return ph
}

// gwClient is the closed-loop gateway client.
type gwClient struct {
	b    *bench
	tr   *tracer
	reg  *obs.Registry
	ph   *phase
	wire bytes.Buffer
	reqs []reqSample // completed requests, in schedule order
}

// reqSample is one completed request: payload bytes and the time its
// compress and its decode+verify took.
type reqSample struct {
	n         int
	comp, dec time.Duration
}

// request sends schedule entry i through a fresh Writer, damages the wire
// if the entry says so, and reads it back through a fresh repairing
// Reader. Latency counts the compress and the decode+verify, not the
// damage step.
func (cl *gwClient) request(i int, req request) (unitStream, lzss.SearchStats) {
	b, tr, ph := cl.b, cl.tr, cl.ph
	payload := b.corpus[req.off : req.off+req.n]
	us := unitStream{plain: payload, segSize: b.sc.gwSegSize}
	var search lzss.SearchStats
	ph.attempted++
	stream := 2*i + 1
	onSeg := func(sr core.SegmentReport) {
		us.segs = append(us.segs, segRecord{sr.Codec, sr.FrameLen})
		tr.event("emit", stream, sr.Index, codecName(sr.Codec), hostTime(sr.Report))
	}
	cl.wire.Reset()

	t0 := time.Now()
	root := tr.open("compress", stream, 0)
	sp := tr.open("Writer.New", stream, root)
	w := core.NewWriterOptions(&cl.wire, core.Params{Stats: &search, Obs: cl.reg}, core.StreamOptions{
		SegmentSize: b.sc.gwSegSize, Codec: codec.Auto, Parity: b.sc.gwParity, OnSegment: onSeg})
	tr.close(sp)
	var err error
	for off := 0; off < len(payload) && err == nil; off += b.sc.piece {
		sp := tr.open("Writer.Write", stream, root)
		_, err = w.Write(payload[off:min(off+b.sc.piece, len(payload))])
		tr.close(sp)
	}
	sp = tr.open("Writer.Close", stream, root)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	tr.close(sp)
	tr.close(root)
	comp := time.Since(t0)
	if err != nil {
		ph.fail("request %d: compress: %v", i, err)
		return us, search
	}
	st := w.Stats()
	ph.retries += st.Retries
	ph.degraded += st.Degraded
	if st.Retries != 0 || st.Degraded != 0 {
		ph.fail("request %d: %d retries, %d degraded with no faults armed", i, st.Retries, st.Degraded)
		return us, search
	}
	wire := cl.wire.Bytes()
	ph.outBytes += len(wire)
	ph.inBytes += len(payload)
	if req.damageU < float64(len(wire))/float64(b.sc.burstGap) {
		us.damaged, err = damageStream(wire, us, b.sc.gwParity, req.damageSeed)
		if err != nil {
			ph.fail("request %d: locating frames: %v", i, err)
			return us, search
		}
		ph.damagedReqs++
	}

	t1 := time.Now()
	dec, err := b.decodePass(wire, payload, core.ReaderOptions{Salvage: true, Repair: true}, cl.reg, tr, stream+1, nil)
	decode := time.Since(t1)
	switch {
	case err != nil:
		ph.fail("request %d: decode: %v", i, err)
		return us, search
	case dec.stats.Repaired != len(us.damaged) || !slices.Equal(dec.repaired, us.damaged):
		ph.fail("request %d: repaired %d regions, segments %v; damaged segments %v",
			i, dec.stats.Repaired, dec.repaired, us.damaged)
		return us, search
	}
	ph.reader.add(dec.stats)
	cl.reqs = append(cl.reqs, reqSample{len(payload), comp, decode})
	ph.plain += len(payload)
	return us, search
}

// frameOffsets locates every data frame of a framed stream from the frame
// lengths the Writer reported: parity frame lengths follow from each
// group's frame lengths, and the walk must end exactly where the trailer
// starts.
func frameOffsets(stream []byte, us unitStream, parity core.ParityConfig) ([]int, error) {
	off := len(format.AppendStreamHeader(nil, us.segSize))
	offs := make([]int, len(us.segs))
	for g := 0; g < len(us.segs); g += parity.K {
		group := us.segs[g:min(g+parity.K, len(us.segs))]
		lens := make([]int, len(group))
		shard := 0
		for i, r := range group {
			offs[g+i] = off
			off += r.frameLen
			lens[i] = r.frameLen
			shard = max(shard, r.frameLen)
		}
		for j := 0; j < parity.M; j++ {
			pf := format.ParityFrame{FirstIndex: g, K: len(group), M: parity.M, J: j,
				ShardLen: shard, FrameLens: lens, Shard: make([]byte, shard)}
			off += pf.EncodedLen()
		}
	}
	trailer := format.AppendStreamTrailer(nil, &format.StreamTrailer{
		Segments: len(us.segs), TotalLen: len(us.plain), Checksum: format.Checksum32(us.plain)})
	if off+len(trailer) != len(stream) {
		return nil, fmt.Errorf("frames end at %d + %d-byte trailer, stream is %d bytes", off, len(trailer), len(stream))
	}
	return offs, nil
}

// damageStream flips one bit in each of burstLen consecutive bytes (fewer
// if the container is shorter) inside the container of one data frame
// per parity group, in place, as the gateway example's wire corrupter
// does, and returns the damaged segment indices. One loss per group is
// always within the parity's reach.
func damageStream(stream []byte, us unitStream, parity core.ParityConfig, seed int64) ([]int, error) {
	offs, err := frameOffsets(stream, us, parity)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var hit []int
	for g := 0; g < len(us.segs); g += parity.K {
		f := g + rng.Intn(min(parity.K, len(us.segs)-g))
		lo, hi := offs[f]+frameHeaderMax, offs[f]+us.segs[f].frameLen
		if hi <= lo {
			return nil, fmt.Errorf("frame %d is only %d bytes", f, us.segs[f].frameLen)
		}
		n := min(burstLen, hi-lo)
		at := lo + rng.Intn(hi-lo-n+1)
		for j := at; j < at+n; j++ {
			stream[j] ^= byte(1) << rng.Intn(8)
		}
		hit = append(hit, f)
	}
	return hit, nil
}

// hostTime is rep's measured host step; 0 for a nil report.
func hostTime(rep *gpu.Report) time.Duration {
	if rep == nil {
		return 0
	}
	return rep.HostTime
}

// codecName is the registry's short name for c ("v1", "v2", "raw").
func codecName(c format.Codec) string {
	if eng, ok := codec.Lookup(c); ok {
		return eng.Name()
	}
	return c.String()
}

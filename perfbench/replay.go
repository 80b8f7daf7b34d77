package main

import (
	"bytes"
	"fmt"
	"time"

	"culzss/internal/codec"
	"culzss/internal/ecc"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/lzss"
)

// codecTally sums bytes and time per codec.
type codecTally struct {
	bytes int
	time  time.Duration
}

// replayResult is the per-layer breakdown of the unit: each layer's
// public function called once per segment (or per parity group), timed
// call by call.
type replayResult struct {
	selectTime time.Duration
	selects    map[format.Codec]int
	twin       map[format.Codec]*codecTally // Engine.CompressCPU: search without the simulator
	engine     map[format.Codec]*codecTally // Engine.CompressInto: search plus simulator
	decode     map[format.Codec]*codecTally // Engine.DecompressInto
	search     lzss.SearchStats             // from the twin
	hostPost   time.Duration                // Σ Report.HostTime, measured
	modeled    time.Duration                // Σ KernelTime + H2D + D2H, modeled
	frame      codecTally                   // AppendSegmentFrame + Checksum32
	parity     time.Duration                // ecc.Coder.Parity
	groups     int
	recon      time.Duration // ecc.Coder.Reconstruct
	reconCount int
}

func tally(m map[format.Codec]*codecTally, c format.Codec, n int, d time.Duration) {
	t := m[c]
	if t == nil {
		t = &codecTally{}
		m[c] = t
	}
	t.bytes += n
	t.time += d
}

// replay sends the unit's segments one at a time through each layer and
// checks that every layer reproduces what the pipeline did: the same
// codec choice, the same frame length, the same search counters, twin
// and engine containers byte-identical, decode and reconstruction exact.
func replay(u *unit) (*replayResult, error) {
	r := &replayResult{selects: map[format.Codec]int{},
		twin: map[format.Codec]*codecTally{}, engine: map[format.Codec]*codecTally{}, decode: map[format.Codec]*codecTally{}}
	coders := map[int]*ecc.Coder{}
	var cbuf, pbuf []byte
	for si, s := range u.streams {
		frames := make([][]byte, len(s.segs))
		for i, rec := range s.segs {
			seg := s.plain[i*s.segSize : min((i+1)*s.segSize, len(s.plain))]

			t := time.Now()
			c := codec.SelectCodec(seg)
			r.selectTime += time.Since(t)
			r.selects[c]++
			if c != rec.codec {
				return nil, fmt.Errorf("stream %d segment %d: selector picks %v, pipeline wrote %v", si, i, c, rec.codec)
			}
			eng, ok := codec.Lookup(c)
			if !ok {
				return nil, fmt.Errorf("codec %v not registered", c)
			}

			var st lzss.SearchStats
			t = time.Now()
			twin, err := eng.CompressCPU(seg, gpu.Options{HostWorkers: 1, Stats: &st})
			tally(r.twin, c, len(seg), time.Since(t))
			if err != nil {
				return nil, fmt.Errorf("stream %d segment %d: twin: %w", si, i, err)
			}
			r.search.Add(st)

			t = time.Now()
			cont, rep, err := eng.CompressInto(cbuf[:0], seg, gpu.Options{HostWorkers: 1})
			tally(r.engine, c, len(seg), time.Since(t))
			if err != nil {
				return nil, fmt.Errorf("stream %d segment %d: engine: %w", si, i, err)
			}
			cbuf = cont
			if !bytes.Equal(cont, twin) {
				return nil, fmt.Errorf("stream %d segment %d: engine and twin containers differ", si, i)
			}
			if rep != nil {
				r.hostPost += rep.HostTime
				r.modeled += rep.H2D + rep.D2H
				if rep.Launch != nil {
					r.modeled += rep.Launch.KernelTime
				}
			}

			t = time.Now()
			frame := format.AppendSegmentFrame(nil, i, len(seg), cont)
			_ = format.Checksum32(cont)
			r.frame.time += time.Since(t)
			r.frame.bytes += len(frame)
			if len(frame) != rec.frameLen {
				return nil, fmt.Errorf("stream %d segment %d: frame is %d bytes, pipeline wrote %d", si, i, len(frame), rec.frameLen)
			}
			frames[i] = frame

			t = time.Now()
			plain, _, err := eng.DecompressInto(pbuf[:0], cont, gpu.Options{HostWorkers: 1})
			tally(r.decode, c, len(seg), time.Since(t))
			if err != nil {
				return nil, fmt.Errorf("stream %d segment %d: decode: %w", si, i, err)
			}
			pbuf = plain
			if !bytes.Equal(plain, seg) {
				return nil, fmt.Errorf("stream %d segment %d: decode differs from the plaintext", si, i)
			}
		}
		if err := r.replayParity(s, frames, u.parity.K, u.parity.M, coders); err != nil {
			return nil, fmt.Errorf("stream %d: %w", si, err)
		}
	}
	return r, nil
}

// replayParity computes each group's parity over its zero-padded frames
// and, for the groups the wire damaged, rebuilds the damaged frame.
func (r *replayResult) replayParity(s unitStream, frames [][]byte, k, m int, coders map[int]*ecc.Coder) error {
	damaged := map[int]bool{}
	for _, d := range s.damaged {
		damaged[d] = true
	}
	for g := 0; g < len(frames); g += k {
		group := frames[g:min(g+k, len(frames))]
		coder := coders[len(group)]
		if coder == nil {
			var err error
			if coder, err = ecc.New(len(group), m); err != nil {
				return err
			}
			coders[len(group)] = coder
		}
		shardLen := 0
		for _, f := range group {
			shardLen = max(shardLen, len(f))
		}
		shards := make([][]byte, len(group)+m)
		for i, f := range group {
			shards[i] = append(make([]byte, 0, shardLen), f...)[:shardLen]
		}
		t := time.Now()
		par, err := coder.Parity(shards[:len(group)])
		r.parity += time.Since(t)
		if err != nil {
			return err
		}
		r.groups++
		copy(shards[len(group):], par)
		for i := range group {
			if !damaged[g+i] {
				continue
			}
			lost := shards[i]
			shards[i] = nil
			t := time.Now()
			err := coder.Reconstruct(shards)
			r.recon += time.Since(t)
			r.reconCount++
			if err != nil {
				return err
			}
			if !bytes.Equal(shards[i], lost) {
				return fmt.Errorf("segment %d: reconstruction differs", g+i)
			}
		}
	}
	return nil
}

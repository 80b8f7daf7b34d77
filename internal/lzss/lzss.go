// Package lzss implements the Lempel–Ziv–Storer–Szymanski dictionary
// compression algorithm that every compressor in this repository builds on.
//
// LZSS (Storer & Szymanski 1982) improves LZ77 by prefixing every token
// with a one-bit flag that says whether the token is a raw literal or a
// (offset, length) back-reference into the sliding window, and by emitting
// a back-reference only when it is no longer than the bytes it replaces
// (the minimum-match rule; with the 16-bit coded token used here the
// minimum useful match is three bytes, exactly as in the paper §II.A).
//
// The package provides:
//
//   - Config: window / lookahead / minimum-match parameterisation with the
//     three presets used by the paper (Dipperstein's serial defaults and
//     the CULZSS V1/V2 GPU configurations).
//   - Longest-match search primitives: the brute-force linear scan the
//     paper's serial and GPU implementations use (with search statistics
//     feeding the GPU performance model), and an optional hash-chain
//     matcher (the paper's §VII "improved searching" future work).
//   - Two token-stream formats: the dense bit-packed stream of the serial
//     implementation (1 flag bit + 8-bit literal or offset/length fields)
//     and the byte-aligned stream of the GPU implementations (flag bytes
//     covering groups of eight tokens + 16-bit coded tokens).
//
// Streams produced by this package are raw token streams; framing (chunk
// tables, checksums, parameters) is added by the container in
// internal/format.
package lzss

import (
	"errors"
	"fmt"
	"math"
)

// Errors shared by the decoders.
var (
	ErrCorrupt   = errors.New("lzss: corrupt token stream")
	ErrTruncated = errors.New("lzss: truncated token stream")
)

// Config parameterises the LZSS dictionary.
type Config struct {
	// Window is the sliding-window (search buffer) size in bytes: the
	// maximum back-reference distance.
	Window int
	// MaxMatch is the maximum match length a coded token can express
	// (the lookahead-buffer size in the classical formulation).
	MaxMatch int
	// MinMatch is the shortest match worth coding. Shorter runs are
	// emitted as literals; with a 16-bit coded token, a two-byte match
	// costs as much as two literals (paper §II.A.1), so MinMatch is 3.
	MinMatch int
}

// Preset configurations.

// Dipperstein returns the serial CPU configuration adapted from
// Dipperstein's reference implementation [paper ref 15]: a 4 KiB window
// with an 18-byte lookahead, 12-bit offsets and 4-bit lengths when
// bit-packed.
func Dipperstein() Config { return Config{Window: 4096, MaxMatch: 18, MinMatch: 3} }

// CULZSSV1 returns the GPU Version 1 configuration: a 128-byte window
// (paper §III.D: best performing, and it fits the 16-bit coded token),
// classical 18-byte lookahead.
func CULZSSV1() Config { return Config{Window: 128, MaxMatch: 18, MinMatch: 3} }

// CULZSSV2 returns the GPU Version 2 configuration: the same 128-byte
// window but with the extended 8-bit match-length field (lengths up to
// MinMatch+255), which is where V2's win on highly compressible data
// comes from (Table II, last row).
func CULZSSV2() Config { return Config{Window: 128, MaxMatch: 258, MinMatch: 3} }

// Validate reports whether the configuration is internally consistent and
// expressible in both token-stream formats used by this repository.
func (c Config) Validate() error {
	if c.Window < 1 {
		return fmt.Errorf("lzss: window %d < 1", c.Window)
	}
	if c.MinMatch < 2 {
		return fmt.Errorf("lzss: min match %d < 2", c.MinMatch)
	}
	if c.MaxMatch < c.MinMatch {
		return fmt.Errorf("lzss: max match %d < min match %d", c.MaxMatch, c.MinMatch)
	}
	return nil
}

// MaxDecodedByteAligned bounds the plaintext n payload bytes of
// byte-aligned tokens can decode to: a coded token spends two bytes on
// at most MaxMatch output bytes and a literal one byte on one, so no
// payload byte yields more than MaxMatch. The 8-bit length field caps a
// token at MinMatch+255 bytes whatever MaxMatch a header claims.
// Decoders check a container's claimed length against it before sizing
// their output buffer.
func (c Config) MaxDecodedByteAligned(n int) int64 {
	return int64(n) * int64(min(c.MaxMatch, c.MinMatch+255))
}

// MaxDecodedBitPacked is MaxDecodedByteAligned for the bit-packed token
// stream: a coded token spends w = 1+offset+length bits on at most
// MaxMatch output bytes, a literal 9 bits on one. Per bit no token beats
// max(MaxMatch/w, 1/9), so n bytes decode to at most
// max((8n/w+1)*MaxMatch, 8n/9), saturating at math.MaxInt64.
func (c Config) MaxDecodedBitPacked(n int) int64 {
	bits := int64(n) * 8
	tokens := bits/int64(1+offsetBits(&c)+lengthBits(&c)) + 1
	if tokens > math.MaxInt64/int64(c.MaxMatch) {
		return math.MaxInt64
	}
	return max(tokens*int64(c.MaxMatch), bits/9)
}

// byteAlignedOK reports whether the configuration fits the byte-aligned
// 16-bit coded token (8-bit offset, 8-bit length).
func (c Config) byteAlignedOK() error {
	if c.Window > 256 {
		return fmt.Errorf("lzss: window %d does not fit the 8-bit offset field", c.Window)
	}
	if c.MaxMatch-c.MinMatch > 255 {
		return fmt.Errorf("lzss: max match %d does not fit the 8-bit length field", c.MaxMatch)
	}
	return nil
}

// Match is a back-reference into the sliding window: Length bytes starting
// Distance bytes before the current position. Distance may be smaller than
// Length (an overlapping match: the classical run-length trick).
type Match struct {
	Distance int
	Length   int
}

// ok reports whether the match is worth coding under cfg.
func (m Match) ok(cfg *Config) bool { return m.Length >= cfg.MinMatch }

// SearchStats accumulates work counters during match search. The GPU
// performance model consumes these: Comparisons is the dominant term of
// the kernels' simulated compute time.
type SearchStats struct {
	// Positions is the number of input positions for which a search ran.
	Positions int64
	// Offsets is the number of candidate window offsets visited.
	Offsets int64
	// Comparisons is the number of byte comparisons performed.
	Comparisons int64
	// Matched is the number of searches that found a codable match.
	Matched int64
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Positions += other.Positions
	s.Offsets += other.Offsets
	s.Comparisons += other.Comparisons
	s.Matched += other.Matched
}

// LongestMatch performs the brute-force linear window scan used by the
// paper's serial implementation and both GPU kernels: every candidate
// offset in [winStart, pos) is tried, closest first, and the longest match
// wins; ties therefore prefer the shortest distance (which also makes the
// output byte-identical to HashMatcher's). The scan stops early when a
// match of the maximum expressible length is found (which is why LZSS
// flies on the highly-compressible dataset, Table I last row).
//
// winStart is the first data index the window may reference. Callers
// normally pass max(0, pos-cfg.Window); the V2 kernel passes its
// tile-anchored window start instead. Matches may overlap pos (source
// extending into the region being matched), exactly as a serial sliding
// window allows.
func LongestMatch(data []byte, pos, winStart int, cfg *Config, stats *SearchStats) Match {
	if winStart < 0 {
		winStart = 0
	}
	if lo := pos - cfg.Window; winStart < lo {
		winStart = lo
	}
	maxLen := cfg.MaxMatch
	if rem := len(data) - pos; rem < maxLen {
		maxLen = rem
	}
	if stats != nil {
		stats.Positions++
	}
	var best Match
	if maxLen < cfg.MinMatch || pos == 0 {
		return best
	}
	first := data[pos]
	var offs, cmps int64
	for start := pos - 1; start >= winStart; start-- {
		offs++
		cmps++
		if data[start] != first {
			continue
		}
		l := 1
		for l < maxLen && data[start+l] == data[pos+l] {
			l++
		}
		cmps += int64(l) // the extension compares plus the failing one fold together
		if l > best.Length {
			best = Match{Distance: pos - start, Length: l}
			if l == maxLen {
				break
			}
		}
	}
	if stats != nil {
		stats.Offsets += offs
		stats.Comparisons += cmps
		if best.ok(cfg) {
			stats.Matched++
		}
	}
	if !best.ok(cfg) {
		return Match{}
	}
	return best
}

// MaxEncodedLenBitPacked bounds the bit-packed stream size for n input
// bytes: worst case is all literals at 9 bits each, plus the final byte's
// padding.
func MaxEncodedLenBitPacked(n int, cfg Config) int {
	return (n*9+7)/8 + 1
}

// MaxEncodedLenByteAligned bounds the byte-aligned stream size for n input
// bytes: worst case is all literals, one flag byte per eight tokens.
func MaxEncodedLenByteAligned(n int) int {
	return n + (n+7)/8
}

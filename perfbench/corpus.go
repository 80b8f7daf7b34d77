package main

import (
	"math"
	"math/rand"

	"culzss/internal/datasets"
)

// cycle is the corpus rhythm: every six segments hold one segment of each
// of the five paper datasets plus one seeded random segment, always in
// this order. A fixed order keeps the codec mix (v2 for the text-like
// sets, v1 for the highly compressible ones, raw for random bytes), the
// parity groups and the pipeline's emit order the same on every seed, so
// a seed changes the bytes, not the shape of the work.
var cycle = []string{"cfiles", "demap", "random", "dictionary", "highcomp", "kernel"}

// makeCorpus builds the benchmark's plaintext from seed alone: segments
// segments of segSize bytes following cycle.
func makeCorpus(seed int64, segSize, segments int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, segSize*segments)
	for i := 0; i < segments; i++ {
		segSeed := rng.Int63()
		g, ok := datasets.ByKey(cycle[i%len(cycle)])
		if !ok {
			seg := make([]byte, segSize)
			rand.New(rand.NewSource(segSeed)).Read(seg)
			out = append(out, seg...)
			continue
		}
		out = append(out, g.Gen(segSize, segSeed)...)
	}
	return out
}

// request is one gateway payload: corpus[off:off+n].
type request struct {
	off, n int
	// damageU decides wire damage: the request is damaged when damageU
	// is below its wire length / burstGap, the chance that the gateway
	// example's hostile-wire model (one burst per burstGap wire bytes on
	// average) hits a stream of that length. A damaged request takes one
	// burst inside one data frame of each parity group, positions drawn
	// from damageSeed.
	damageU    float64
	damageSeed int64
}

// sizeStrata is the number of payload-size bands per schedule block.
const sizeStrata = 8

// golden is the golden-ratio conjugate. Stepping a value in [0,1) by it
// modulo 1 spreads the steps evenly, so any run of consecutive steps
// falls below a threshold p close to p of the time.
const golden = 0.6180339887498949

// makeSchedule draws the gateway's request sequence from seed. It is
// built in blocks of len(cycle)×sizeStrata requests: each block holds one
// request per (dataset, size band) pair in shuffled order, sizes
// log-uniform within their band of [minPayload, maxPayload]. Successive
// blocks take each band from the dataset's segments in turn, and step
// each pair's damageU by golden from a seeded start. Every prefix of the
// schedule therefore has nearly the same mix of codecs, sizes, source
// segments and repairs, whatever the seed and however many requests a
// run completes.
func makeSchedule(seed int64, segSize, segments, minPayload, maxPayload, count int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x6761746577617900)) // distinct stream from the corpus
	maxPayload = min(maxPayload, segSize)
	span := math.Log(float64(maxPayload) / float64(minPayload))
	perKind := segments / len(cycle)
	block := len(cycle) * sizeStrata
	start := make([]float64, block)
	for i := range start {
		start[i] = rng.Float64()
	}
	reqs := make([]request, 0, count+block)
	for bi := 0; len(reqs) < count; bi++ {
		var b []request
		for k := range cycle {
			for j := 0; j < sizeStrata; j++ {
				n := int(float64(minPayload) * math.Exp((float64(j)+rng.Float64())/sizeStrata*span))
				n = min(max(n, minPayload), maxPayload)
				seg := (((bi*sizeStrata+j)%perKind)*len(cycle) + k) * segSize
				_, u := math.Modf(start[k*sizeStrata+j] + float64(bi)*golden)
				b = append(b, request{off: seg + rng.Intn(segSize-n+1), n: n, damageU: u, damageSeed: rng.Int63()})
			}
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		reqs = append(reqs, b...)
	}
	return reqs[:count]
}

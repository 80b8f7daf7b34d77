// Buffer recycling for the streaming hot paths. The Writer's original
// bufPool pattern, generalized: one bytePool per buffer population
// (writer segment buffers, reader container buffers, reader plaintext
// buffers), with hit/miss accounting so the allocation discipline is
// observable — through ReaderStats and, when a registry is armed, the
// culzss_bufpool_{hits,misses}_total{pool=...} counters — rather than
// asserted.
package core

import (
	"sync"
	"sync/atomic"

	"culzss/internal/obs"
)

// bytePool recycles byte buffers of one population. The zero pool is
// not ready to use; construct with newBytePool (a nil registry is
// inert, matching the rest of the obs layer).
//
// Each Writer and Reader owns its pools, so a plain free list serves:
// its buffers die with their owner. (A sync.Pool would keep a finished
// owner's buffers reachable until two collections later; a process
// running stream after stream then carries every recent owner's buffers
// into each collection's live heap and its heap goal.)
type bytePool struct {
	mu     sync.Mutex
	free   [][]byte
	hits   atomic.Int64
	misses atomic.Int64
	chits  *obs.Counter // nil-inert registry mirrors
	cmiss  *obs.Counter
}

func newBytePool(reg *obs.Registry, name string) *bytePool {
	p := &bytePool{}
	if reg != nil {
		reg.SetHelp("culzss_bufpool_hits_total", "Stream buffer requests served from a recycle pool.")
		reg.SetHelp("culzss_bufpool_misses_total", "Stream buffer requests that had to allocate.")
		p.chits = reg.Counter("culzss_bufpool_hits_total", obs.L("pool", name))
		p.cmiss = reg.Counter("culzss_bufpool_misses_total", obs.L("pool", name))
	}
	return p
}

// get returns a zero-length buffer with capacity of at least capHint. A
// pooled buffer too small for the request is dropped (segment and
// container sizes are near-uniform within one stream, so the pool
// self-corrects instead of churning).
func (p *bytePool) get(capHint int) []byte {
	var b []byte
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if cap(b) >= capHint {
		p.hits.Add(1)
		p.chits.Inc()
		return b[:0]
	}
	p.misses.Add(1)
	p.cmiss.Inc()
	return make([]byte, 0, capHint)
}

// put recycles b for a later get. nil is ignored, and so is any buffer
// beyond as many as the pool itself allocated: callers also hand back
// buffers from elsewhere (repaired frames), and holding those would grow
// the list without bound.
func (p *bytePool) put(b []byte) {
	if b == nil {
		return
	}
	p.mu.Lock()
	if int64(len(p.free)) < p.misses.Load() {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// counts reports the pool's lifetime hit/miss totals.
func (p *bytePool) counts() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

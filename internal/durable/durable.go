// Package durable is the crash-safe persistence layer over the CLZS
// frame format: it writes a framed stream to disk so that a process
// crash, torn write, or power cut at ANY byte offset leaves a file that
// is either (a) the complete, atomically-renamed final stream, or (b) a
// ".partial" file whose longest verifiable frame prefix can be resumed
// into a stream byte-equivalent to an uninterrupted run.
//
// The commit protocol has three rules:
//
//  1. All writes go to PartialPath(path) (= path + ".partial"). The
//     final name appears only via rename after the trailer is on disk
//     and fsynced, so a reader never observes a torn final file.
//  2. fsync happens at frame-boundary commit points (every
//     CommitEverySegments segment frames and/or CommitEveryBytes output
//     bytes, plus once in Close covering the trailer). Between commits,
//     completed frames may still be lost to a power cut — the commit
//     cadence bounds the recompression window, it does not narrow what
//     Resume can recover from.
//  3. Recovery never trusts tail bytes: durable.Resume rescans the
//     partial file, verifies every frame CRC (and decodes every frame to
//     rebuild the plaintext CRC state), truncates to the last verifiable
//     boundary, and appends from there.
//
// The layer deliberately sits *outside* internal/core: the core Writer
// stays an io.Writer pipeline with no file-system opinions, and gains
// only the ResumeState hook this package drives.
package durable

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"culzss/internal/core"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/obs"
)

// Options tune the durable layer. The zero value commits every segment
// frame.
type Options struct {
	// CommitEverySegments is the fsync cadence in completed segment
	// frames; 0 means 1 (every frame). Larger values trade crash-loss
	// window for fewer fsyncs.
	CommitEverySegments int
	// CommitEveryBytes additionally commits whenever this many output
	// bytes have reached a frame boundary since the last commit; 0
	// disables the byte trigger.
	CommitEveryBytes int64
	// Stream is passed to the underlying core.Writer. Its Resume field
	// is owned by this package: Create zeroes it, Resume fills it.
	Stream core.StreamOptions
}

func (o Options) commitSegments() int {
	if o.CommitEverySegments <= 0 {
		return 1
	}
	return o.CommitEverySegments
}

// PartialPath is where a durable Writer accumulates bytes before the
// finalizing rename: path + ".partial".
func PartialPath(path string) string { return path + ".partial" }

// Writer is a crash-safe framed-stream writer. Write feeds the core
// compression pipeline; completed frames are fsynced on the commit
// cadence; Close writes the trailer, commits, and atomically renames the
// partial file into place. If the process dies first, the partial file
// remains for Resume.
type Writer struct {
	w    *core.Writer
	cw   *commitWriter
	path string
	done bool
}

// Create starts a fresh durable stream destined for path. The bytes
// accumulate in PartialPath(path); path itself appears only on a
// successful Close.
func Create(path string, p core.Params, o Options) (*Writer, error) {
	f, err := os.OpenFile(PartialPath(path), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	o.Stream.Resume = nil
	cw := newCommitWriter(f, p, o, 0, 0)
	return &Writer{w: core.NewWriterOptions(cw, p, o.Stream), cw: cw, path: path}, nil
}

// Write feeds plaintext into the stream.
func (d *Writer) Write(p []byte) (int, error) { return d.w.Write(p) }

// Close flushes the pipeline, writes the stream trailer, commits it to
// stable storage, and renames the partial file to its final path. On any
// error the partial file is left in place for Resume.
func (d *Writer) Close() error {
	if d.done {
		return nil
	}
	if err := d.w.Close(); err != nil {
		d.done = true
		_ = d.cw.f.Close() // keep the partial for Resume
		return err
	}
	d.done = true
	return d.cw.finalize(d.path)
}

// Abort simulates a crash: it closes the file immediately (in-flight
// pipeline writes fail against it), drains the compression pipeline, and
// leaves the partial file exactly as the "crash" left it. Tests and
// shutdown paths use it; the partial is then Resume fodder.
func (d *Writer) Abort() error {
	if d.done {
		return nil
	}
	d.done = true
	cerr := d.cw.f.Close()
	_ = d.w.Close() // drain workers; their writes fail on the closed file
	return cerr
}

// Stats reports the underlying core.Writer counters with the durable
// layer's Committed filled in.
func (d *Writer) Stats() core.WriterStats {
	st := d.w.Stats()
	st.Committed = d.cw.committedSegments()
	return st
}

// durableMetrics is the package's obs instrument set; every instrument
// is nil-inert.
type durableMetrics struct {
	commits         *obs.Counter
	commitBytes     *obs.Counter
	resumes         *obs.Counter
	resumeTruncated *obs.Counter
	resumeRepaired  *obs.Counter
	commitSeconds   *obs.Histogram
}

func newDurableMetrics(reg *obs.Registry) durableMetrics {
	reg.SetHelp("culzss_durable_commits_total", "Frame-boundary fsync commits by the durable writer.")
	reg.SetHelp("culzss_durable_commit_bytes_total", "Output bytes newly covered by durable commits.")
	reg.SetHelp("culzss_durable_resumes_total", "Interrupted streams resumed from a partial file.")
	reg.SetHelp("culzss_durable_resume_truncated_bytes_total", "Unverifiable tail bytes discarded by resume.")
	reg.SetHelp("culzss_durable_resume_repaired_frames_total", "Frames rebuilt in place from parity during resume.")
	reg.SetHelp("culzss_commit_seconds", "Durable commit (fsync) latency in seconds.")
	return durableMetrics{
		commits:         reg.Counter("culzss_durable_commits_total"),
		commitBytes:     reg.Counter("culzss_durable_commit_bytes_total"),
		resumes:         reg.Counter("culzss_durable_resumes_total"),
		resumeTruncated: reg.Counter("culzss_durable_resume_truncated_bytes_total"),
		resumeRepaired:  reg.Counter("culzss_durable_resume_repaired_frames_total"),
		commitSeconds:   reg.Histogram("culzss_commit_seconds"),
	}
}

// commitWriter sits between the core.Writer and the file: the Writer
// issues exactly one Write per record, so commitWriter parses each call's
// bytes as one whole record (the stream header first), checks that it
// continues the stream, fsyncs on the commit cadence, and records what
// has provably reached stable storage.
type commitWriter struct {
	f   *os.File
	out io.Writer // f, possibly behind the injector's write-fault wrapper
	inj *faults.Injector
	met durableMetrics

	commitSegs  int
	commitBytes int64

	mu            sync.Mutex
	good          int64 // offset just past the last whole record written; 0 = header next
	records       int   // segment frames written
	trailer       bool  // the trailer is written: nothing may follow
	bug           error // sticky framing violation
	committedSegs int   // frames known fsynced
	committedOff  int64 // file offset known fsynced (a frame boundary)
}

// newCommitWriter returns a commitWriter appending at the record boundary
// off, after records segment frames; off 0 means a fresh stream, which
// starts with its header.
func newCommitWriter(f *os.File, p core.Params, o Options, off int64, records int) *commitWriter {
	return &commitWriter{
		f:             f,
		out:           p.Injector.WrapWriter(f),
		inj:           p.Injector,
		met:           newDurableMetrics(p.Obs),
		commitSegs:    o.commitSegments(),
		commitBytes:   o.CommitEveryBytes,
		good:          off,
		records:       records,
		committedSegs: records,
		committedOff:  off,
	}
}

func (cw *commitWriter) committedSegments() int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.committedSegs
}

// Write checks that p is the stream's next whole record, forwards it to
// the file, and commits when the cadence says so. A record that breaks
// the stream is not written, and every later Write fails with the same
// error. A torn write (n < len(p)) leaves no new record boundary, so the
// good offset stays where it was. The core.Writer serialises record
// writes, but the mutex also covers Stats readers.
func (cw *commitWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.bug != nil {
		return 0, cw.bug
	}
	seg, trailer, err := cw.check(p)
	if err != nil {
		cw.bug = fmt.Errorf("durable: framing bug: %w", err)
		return 0, cw.bug
	}
	n, err := cw.out.Write(p)
	if err != nil {
		return n, err
	}
	cw.good += int64(n)
	if seg {
		cw.records++
	}
	cw.trailer = trailer
	if cw.records-cw.committedSegs >= cw.commitSegs ||
		(cw.commitBytes > 0 && cw.good-cw.committedOff >= cw.commitBytes) {
		if err := cw.commitLocked(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// check parses p as exactly one record continuing the stream written so
// far, and reports whether it is a segment frame or the trailer.
func (cw *commitWriter) check(p []byte) (seg, trailer bool, err error) {
	if cw.trailer {
		return false, false, fmt.Errorf("%w: %d byte(s) after the stream trailer", format.ErrCorrupt, len(p))
	}
	var n int64
	if cw.good == 0 {
		fr, err := format.NewFrameReader(bytes.NewReader(p))
		if err != nil {
			return false, false, err
		}
		n = fr.Offset()
	} else {
		sf, tr, pf, rn, err := format.ParseRecord(p)
		if err != nil {
			return false, false, err
		}
		switch {
		case sf != nil && sf.Index != cw.records:
			return false, false, fmt.Errorf("%w: emitting segment %d, want %d", format.ErrFrameOrder, sf.Index, cw.records)
		case tr != nil && tr.Segments != cw.records:
			return false, false, fmt.Errorf("%w: trailer counts %d segments, stream carried %d", format.ErrCorrupt, tr.Segments, cw.records)
		case pf != nil && pf.FirstIndex+pf.K != cw.records:
			// The writer emits parity right after its group's last data
			// frame.
			return false, false, fmt.Errorf("%w: emitting parity for [%d,%d), stream carries %d segments",
				format.ErrFrameOrder, pf.FirstIndex, pf.FirstIndex+pf.K, cw.records)
		}
		n, seg, trailer = int64(rn), sf != nil, tr != nil
	}
	if n != int64(len(p)) {
		return false, false, fmt.Errorf("%w: one write carries %d bytes, its record %d", format.ErrCorrupt, len(p), n)
	}
	return seg, trailer, nil
}

// commitLocked fsyncs and advances the committed watermark. The fsync
// probes faults.SiteSync first, so the fault layer can model an fsync
// that reports failure.
func (cw *commitWriter) commitLocked() error {
	start := time.Now()
	if err := cw.inj.Fault(faults.SiteSync); err != nil {
		return fmt.Errorf("durable: commit fsync: %w", err)
	}
	if err := cw.f.Sync(); err != nil {
		return fmt.Errorf("durable: commit fsync: %w", err)
	}
	cw.met.commitSeconds.Observe(time.Since(start).Seconds())
	cw.met.commits.Inc()
	cw.met.commitBytes.Add(cw.good - cw.committedOff)
	cw.committedSegs = cw.records
	cw.committedOff = cw.good
	return nil
}

// finalize runs the atomic completion: final commit (covering the
// trailer), close, rename into place, and directory fsync so the rename
// itself is durable. On error the partial file survives.
func (cw *commitWriter) finalize(path string) error {
	cw.mu.Lock()
	err := cw.commitLocked()
	cw.mu.Unlock()
	if err != nil {
		_ = cw.f.Close()
		return err
	}
	if err := cw.f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(cw.f.Name(), path); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(filepath.Dir(path), cw.inj)
}

// syncDir fsyncs a directory so a just-performed rename survives a power
// cut. It probes faults.SiteSync like any other sync point.
func syncDir(dir string, inj *faults.Injector) error {
	if err := inj.Fault(faults.SiteSync); err != nil {
		return fmt.Errorf("durable: directory fsync: %w", err)
	}
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("durable: directory fsync: %w", err)
	}
	return nil
}

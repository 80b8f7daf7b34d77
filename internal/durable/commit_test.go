package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/format"
)

// testCommitWriter returns a commitWriter over a fresh file that appends
// at the record boundary off, after records segment frames.
func testCommitWriter(t *testing.T, p core.Params, off int64, records int) *commitWriter {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out.clzs.partial"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return newCommitWriter(f, p, Options{CommitEverySegments: 1 << 20}, off, records)
}

// splitRecords cuts a stream into its header and records, in order.
func splitRecords(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	prev := int64(0)
	for _, b := range boundaries(t, stream) {
		recs = append(recs, stream[prev:b])
		prev = b
	}
	return recs
}

func TestCommitWriterResume(t *testing.T) {
	stream := refStream(t, datasets.CFiles(40<<10, 3), core.Params{}, 8<<10) // 5 segments
	recs := splitRecords(t, stream)
	// Resume at the boundary after frame 1 (recs[0] is the header).
	off := int64(len(recs[0]) + len(recs[1]) + len(recs[2]))
	cw := testCommitWriter(t, core.Params{}, off, 2)
	for i, r := range recs[3:] {
		if _, err := cw.Write(r); err != nil {
			t.Fatalf("record %d: %v", i+3, err)
		}
	}
	if cw.good != int64(len(stream)) || cw.records != 5 || !cw.trailer {
		t.Fatalf("resumed writer: good=%d records=%d trailer=%v, want %d 5 true",
			cw.good, cw.records, cw.trailer, len(stream))
	}
}

// TestCommitWriterTornWriteKeepsGoodOffset: a write torn mid-record adds
// no record boundary, so the good offset stays on the last whole record.
func TestCommitWriterTornWriteKeepsGoodOffset(t *testing.T) {
	stream := refStream(t, datasets.CFiles(40<<10, 3), core.Params{}, 8<<10)
	recs := splitRecords(t, stream)
	good := int64(len(recs[0]) + len(recs[1]))
	cw := testCommitWriter(t, core.Params{Injector: faults.New(7).TornWriteAt(good + 5)}, 0, 0)
	for _, r := range recs[:2] {
		if _, err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := cw.Write(recs[2]); n != 5 || err == nil {
		t.Fatalf("torn write = (%d, %v), want (5, fault)", n, err)
	}
	if cw.good != good || cw.records != 1 {
		t.Fatalf("after the torn write: good=%d records=%d, want %d 1", cw.good, cw.records, good)
	}
}

func TestCommitWriterRejectsStructuralViolations(t *testing.T) {
	header := format.AppendStreamHeader(nil, 4096)
	frame := func(index int) []byte {
		return format.AppendSegmentFrame(nil, index, 10, []byte("xxxxxxxxxx"))
	}
	trailer := func(segments int) []byte {
		return format.AppendStreamTrailer(nil, &format.StreamTrailer{Segments: segments, TotalLen: 10 * segments})
	}
	// rejects writes the records one per Write and wants the last one
	// refused as a framing bug matching want, and the writer stuck after it.
	rejects := func(t *testing.T, want error, recs ...[]byte) {
		t.Helper()
		cw := testCommitWriter(t, core.Params{}, 0, 0)
		for _, r := range recs[:len(recs)-1] {
			if _, err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		_, err := cw.Write(recs[len(recs)-1])
		if err == nil || !strings.Contains(err.Error(), "framing bug") || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("err = %v, want a framing bug matching %v", err, want)
		}
		if _, err := cw.Write(frame(cw.records)); err == nil {
			t.Fatal("writer not sticky after a framing bug")
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		rejects(t, format.ErrBadStreamMagic, []byte("XLZS\x01\x00\x00"))
	})
	t.Run("unknown marker", func(t *testing.T) {
		rejects(t, format.ErrCorrupt, header, []byte{0x7f})
	})
	t.Run("out-of-order index", func(t *testing.T) {
		rejects(t, format.ErrFrameOrder, header, frame(5))
	})
	t.Run("byte after trailer", func(t *testing.T) {
		rejects(t, format.ErrCorrupt, header, frame(0), trailer(1), []byte{0})
	})
	t.Run("trailer segment mismatch", func(t *testing.T) {
		rejects(t, format.ErrCorrupt, header, trailer(3))
	})
	t.Run("misplaced parity", func(t *testing.T) {
		pfs, err := format.BuildParityFrames(0, [][]byte{frame(0), frame(1)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Only 1 of the group's 2 frames was written.
		rejects(t, format.ErrFrameOrder, header, frame(0), format.AppendParityFrame(nil, pfs[0]))
	})
	t.Run("two records in one write", func(t *testing.T) {
		rejects(t, format.ErrCorrupt, header, append(frame(0), frame(1)...))
	})
	t.Run("partial record", func(t *testing.T) {
		f := frame(0)
		rejects(t, format.ErrTruncated, header, f[:len(f)-1])
	})
	t.Run("header with a record", func(t *testing.T) {
		rejects(t, format.ErrCorrupt, append(bytes.Clone(header), frame(0)...))
	})
}

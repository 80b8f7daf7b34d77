package format

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/iotest"
)

// buildRecordStream assembles a header + n segment frames (+ optional
// trailer) and returns the bytes plus the record-boundary offsets in
// order (offset just past the header, past each frame, past the trailer).
func buildRecordStream(t *testing.T, n int, withTrailer bool) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	var bounds []int64
	if _, err := WriteStreamHeader(&buf, 4096); err != nil {
		t.Fatal(err)
	}
	bounds = append(bounds, int64(buf.Len()))
	total := 0
	for i := 0; i < n; i++ {
		container := bytes.Repeat([]byte{byte('a' + i)}, 50+i*13)
		if _, err := WriteSegmentFrame(&buf, i, 100+i, container); err != nil {
			t.Fatal(err)
		}
		total += 100 + i
		bounds = append(bounds, int64(buf.Len()))
	}
	if withTrailer {
		tr := &StreamTrailer{Segments: n, TotalLen: total, Checksum: 0xdeadbeef}
		if _, err := WriteStreamTrailer(&buf, tr); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int64(buf.Len()))
	}
	return buf.Bytes(), bounds
}

// readerBounds drains fr and returns its Offset after the header, after
// each parity frame (from OnParity) and after each returned record, plus
// the number of segments read.
func readerBounds(t *testing.T, fr *FrameReader) (bounds []int64, segs int) {
	t.Helper()
	bounds = []int64{fr.Offset()}
	fr.OnParity = func(*ParityFrame) { bounds = append(bounds, fr.Offset()) }
	for {
		seg, trailer, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, fr.Offset())
		if trailer != nil {
			return bounds, segs
		}
		if seg.Index != segs {
			t.Fatalf("segment %d delivered as %d", segs, seg.Index)
		}
		segs++
	}
}

func TestRecordBoundariesFullStream(t *testing.T) {
	data, bounds := buildRecordStream(t, 3, true)
	_, n, err := parseStreamHeader(data)
	if err != nil || int64(n) != bounds[0] {
		t.Fatalf("header: n=%d err=%v, want %d", n, err, bounds[0])
	}
	segs := 0
	for i := 1; i < len(bounds); i++ {
		seg, trailer, pf, n, err := ParseRecord(data[bounds[i-1]:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if bounds[i-1]+int64(n) != bounds[i] {
			t.Fatalf("record %d ends at %d, want %d", i, bounds[i-1]+int64(n), bounds[i])
		}
		switch {
		case seg != nil:
			segs++
		case trailer != nil:
			if i != len(bounds)-1 || trailer.Segments != 3 {
				t.Fatalf("trailer at record %d counts %d segments", i, trailer.Segments)
			}
		case pf != nil:
			t.Fatalf("record %d parsed as parity", i)
		}
	}
	if segs != 3 {
		t.Fatalf("parsed %d segments, want 3", segs)
	}
	fr, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readerBounds(t, fr)
	if !slices.Equal(got, bounds) {
		t.Fatalf("reader offsets %v, want %v", got, bounds)
	}
}

// stutterReader returns no bytes and no error on every other Read, which
// io.Reader allows.
type stutterReader struct {
	r     io.Reader
	empty bool
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.empty = !s.empty; s.empty {
		return 0, nil
	}
	return s.r.Read(p)
}

// TestRecordBoundariesByteAtATime: a source that returns one byte per
// Read, with empty reads in between, lands the reader's Offset on
// exactly the boundaries of one big read — the window never mistakes a
// partial record for a whole one, nor an empty read for the end.
func TestRecordBoundariesByteAtATime(t *testing.T) {
	data, bounds := buildRecordStream(t, 3, true)
	for _, salvage := range []bool{false, true} {
		open := NewFrameReader
		if salvage {
			open = NewFrameReaderSalvage
		}
		fr, err := open(&stutterReader{r: iotest.OneByteReader(bytes.NewReader(data))})
		if err != nil {
			t.Fatal(err)
		}
		got, segs := readerBounds(t, fr)
		if segs != 3 || !slices.Equal(got, bounds) {
			t.Fatalf("salvage=%v: %d segments at offsets %v, want 3 at %v", salvage, segs, got, bounds)
		}
	}
}

func TestRecordBoundariesTruncationPoints(t *testing.T) {
	// For every possible truncation length, the strict reader stops with
	// ErrTruncated and its Offset is the greatest record boundary <= the
	// cut; ParseRecord asks for more than the cut holds.
	data, bounds := buildRecordStream(t, 3, true)
	for cut := 0; cut < len(data); cut++ {
		want := int64(-1)
		for _, b := range bounds {
			if b <= int64(cut) {
				want = b
			}
		}
		fr, err := NewFrameReader(bytes.NewReader(data[:cut]))
		if want < 0 {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d inside the header: %v", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for err == nil {
			_, _, err = fr.Next()
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: %v, want ErrTruncated", cut, err)
		}
		if fr.Offset() != want {
			t.Fatalf("cut %d: Offset = %d, want %d", cut, fr.Offset(), want)
		}
		if int64(cut) > want {
			_, _, _, n, err := ParseRecord(data[want:cut])
			if !errors.Is(err, ErrTruncated) || int64(n) <= int64(cut)-want {
				t.Fatalf("cut %d: ParseRecord of the partial record = (n %d, %v)", cut, n, err)
			}
		}
	}
}

// TestRecordBoundariesParityStream: parity frames are records of their
// own — the reader's Offset inside OnParity is just past each one — and a
// cut one byte into a record leaves the offset on the boundary before it.
func TestRecordBoundariesParityStream(t *testing.T) {
	segs := buildParitySegs(5) // k=2, m=2: short final group of 1
	stream, recOffs, trailerOff := buildParityStreamOffs(t, segs, 2, 2)
	var want []int64 // header end, then the end of every record
	for _, off := range recOffs {
		want = append(want, int64(off))
	}
	want = append(want, int64(trailerOff), int64(len(stream)))

	fr, err := NewFrameReader(iotest.HalfReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	got, nseg := readerBounds(t, fr)
	if nseg != 5 || fr.ParityFrames != 6 { // 3 groups x m=2
		t.Fatalf("%d segments, %d parity frames; want 5 and 6", nseg, fr.ParityFrames)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("offsets %v, want %v", got, want)
	}

	fr, err = NewFrameReader(bytes.NewReader(stream[:recOffs[3]+1])) // 1 byte into record 3
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, _, err = fr.Next()
	}
	if !errors.Is(err, ErrTruncated) || fr.Offset() != int64(recOffs[3]) {
		t.Fatalf("cut inside record 3: (%v, Offset %d), want ErrTruncated at %d", err, fr.Offset(), recOffs[3])
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"culzss/internal/harness"
)

func TestFullRunSmall(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-size", "64KiB", "-reps", "1", "-q", "-serial-search", "hashchain"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Figure 4",
		"shared vs global", "threads per block", "window size",
		"bank conflicts", "search algorithm",
		"automatic version selection",
		"C files", "Highly Compr.", "completed in",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSelectiveRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "64KiB", "-q", "-serial-search", "hashchain", "-table", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table II") {
		t.Error("missing Table II")
	}
	for _, not := range []string{"Table I —", "Table III", "Figure 4", "Ablation"} {
		if strings.Contains(s, not) {
			t.Errorf("unexpected section %q in selective run", not)
		}
	}

	out.Reset()
	if err := run([]string{"-size", "64KiB", "-q", "-ablation", "window"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "window size") {
		t.Error("missing window ablation")
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "banana"}, &out); err == nil {
		t.Error("accepted bad size")
	}
	if err := run([]string{"-serial-search", "quantum"}, &out); err == nil {
		t.Error("accepted bad matcher")
	}
}

func TestJSONBenchAndAgainst(t *testing.T) {
	// -json emits a parseable modeled report...
	var out bytes.Buffer
	args := []string{"-size", "64KiB", "-reps", "1", "-q", "-serial-search", "hashchain", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	rep, err := harness.ReadBenchReport(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if !rep.Config.Modeled || rep.Config.Size != 64<<10 {
		t.Fatalf("report config wrong: %+v", rep.Config)
	}
	// 5x5 compression grid plus the two Reader decode-pipeline cells and
	// the three Writer codec-routing cells.
	if len(rep.Cells) != 30 {
		t.Fatalf("report has %d cells, want the 5x5 grid + 2 decode + 3 writer cells", len(rep.Cells))
	}
	decode, writer := 0, 0
	for _, c := range rep.Cells {
		if strings.HasPrefix(c.System, "Reader ") {
			decode++
		}
		if strings.HasPrefix(c.System, "Writer ") {
			writer++
		}
	}
	if decode != 2 || writer != 3 {
		t.Fatalf("report has %d Reader / %d Writer cells, want 2 / 3", decode, writer)
	}

	// ...and -against that same report passes (the modeled basis makes
	// the rerun identical, well inside any tolerance).
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(baseline, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var rerun bytes.Buffer
	if err := run(append(args, "-against", baseline), &rerun); err != nil {
		t.Fatalf("self-comparison regressed: %v", err)
	}

	// A baseline claiming far faster times must fail the gate.
	for i := range rep.Cells {
		rep.Cells[i].NsPerOp /= 10
	}
	var fast bytes.Buffer
	if err := rep.WriteJSON(&fast); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, fast.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rerun.Reset()
	if err := run(append(args, "-against", baseline), &rerun); err == nil {
		t.Fatal("10x regression passed the -against gate")
	}
}

func TestCSVOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "64KiB", "-q", "-csv", "-serial-search", "hashchain", "-table", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# Table II") {
		t.Error("missing CSV title comment")
	}
	if !strings.Contains(s, ",Serial,BZIP2,V1,V2") {
		t.Errorf("missing CSV header: %q", s)
	}
	if strings.Contains(s, "completed in") {
		t.Error("CSV mode leaked the footer")
	}
}

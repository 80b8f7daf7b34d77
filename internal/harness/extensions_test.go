package harness

import (
	"fmt"
	"strings"
	"testing"
)

func TestExtensionAutoSelection(t *testing.T) {
	tab, err := ExtensionAutoSelection(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	picks := map[string]string{}
	for _, row := range tab.Rows {
		picks[row[0]] = row[3]
	}
	// The §V guidance: V1 for the highly-compressible sets, V2 for text.
	if picks["Highly Compr."] != "V1" {
		t.Errorf("auto picked %s for Highly Compr., want V1", picks["Highly Compr."])
	}
	if picks["C files"] != "V2" {
		t.Errorf("auto picked %s for C files, want V2", picks["C files"])
	}
	if picks["Dictionary"] != "V2" {
		t.Errorf("auto picked %s for Dictionary, want V2", picks["Dictionary"])
	}
}

func TestExtensionDeviceSweep(t *testing.T) {
	tab, err := ExtensionDeviceSweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "Tesla C1060") {
		t.Fatal("render missing the legacy device")
	}
}

func TestExtensionOptimalParse(t *testing.T) {
	tab, err := ExtensionOptimalParse(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var g, o float64
		if _, err := fmt.Sscanf(row[1], "%f%%", &g); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(row[2], "%f%%", &o); err != nil {
			t.Fatal(err)
		}
		if o > g+0.01 {
			t.Errorf("%s: optimal ratio %.2f worse than greedy %.2f", row[0], o, g)
		}
	}
}

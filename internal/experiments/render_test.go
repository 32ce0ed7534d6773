package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func csvRow(cells ...string) string {
	var sb strings.Builder
	writeCSVRow(&sb, cells)
	return sb.String()
}

func TestWriteCSVRowQuoting(t *testing.T) {
	cases := []struct {
		name  string
		cells []string
		want  string
	}{
		{"plain", []string{"a", "b", "c"}, "a,b,c\n"},
		{"empty cells", []string{"", "x", ""}, ",x,\n"},
		{"comma", []string{"a,b", "c"}, "\"a,b\",c\n"},
		{"quote doubled", []string{`say "hi"`}, "\"say \"\"hi\"\"\"\n"},
		{"newline", []string{"two\nlines", "y"}, "\"two\nlines\",y\n"},
		{"all at once", []string{"a,\"b\"\nc"}, "\"a,\"\"b\"\"\nc\"\n"},
		{"no cells", nil, "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := csvRow(tc.cells...); got != tc.want {
				t.Errorf("writeCSVRow(%q) = %q, want %q", tc.cells, got, tc.want)
			}
		})
	}
}

func TestRenderGridShapes(t *testing.T) {
	if got := renderGrid("empty", nil); got != "empty\n" {
		t.Errorf("empty grid = %q", got)
	}
	if got := renderGrid("", nil); got != "" {
		t.Errorf("untitled empty grid = %q", got)
	}
	// Ragged rows render as-is: each row on its own line, no padding.
	got := renderGrid("ragged", [][]int{{1}, {2, 3, 4}})
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("ragged grid lines = %q", lines)
	}
	if lines[1] != "   1 " || lines[2] != "   2  3  4 " {
		t.Errorf("ragged rows rendered as %q, %q", lines[1], lines[2])
	}
}

func TestRenderHeatmapShapes(t *testing.T) {
	// Empty input still emits the title and a (degenerate) range line
	// rather than panicking.
	got := renderHeatmap("empty", nil, "")
	if !strings.HasPrefix(got, "empty\n") || !strings.Contains(got, "range") {
		t.Errorf("empty heatmap = %q", got)
	}
	// A uniform field has mx == mn; every cell must use the lowest ramp
	// shade instead of dividing by zero.
	got = renderHeatmap("", [][]float64{{2, 2}, {2, 2}}, "")
	if strings.ContainsAny(got, "@#%") {
		t.Errorf("uniform field should use the low end of the ramp: %q", got)
	}
	if !strings.Contains(got, "(range 2.00 .. 2.00 cycles)") {
		t.Errorf("range line wrong: %q", got)
	}
	// Ragged rows keep per-row lengths; extremes land on ramp extremes.
	got = renderHeatmap("r", [][]float64{{0}, {1, 100}}, "")
	if !strings.Contains(got, "@@") {
		t.Errorf("max value should map to the densest shade: %q", got)
	}
	if !strings.Contains(got, "(range 0.00 .. 100.00 cycles)") {
		t.Errorf("ragged range: %q", got)
	}
}

func TestDocVisibility(t *testing.T) {
	tb := newTable("T", "h")
	tb.addRow("v")
	d := newDoc().
		add(tb).
		renderOnly(Note("render-note\n")).
		csvOnly(&Table{Title: "flat", Headers: []string{"x"}, Rows: [][]string{{"1"}}})
	r, c := d.Render(), d.CSV()
	if !strings.Contains(r, "render-note") || strings.Contains(c, "render-note") {
		t.Errorf("render-only note leaked: render=%q csv=%q", r, c)
	}
	if strings.Contains(r, "flat") || !strings.Contains(c, "x\n1\n") {
		t.Errorf("csv-only table leaked: render=%q csv=%q", r, c)
	}
	// JSON carries everything regardless of visibility.
	doc := d.Document()
	if len(doc.Blocks) != 3 {
		t.Fatalf("JSON should carry all blocks, got %d", len(doc.Blocks))
	}
	kinds := []string{doc.Blocks[0].Kind, doc.Blocks[1].Kind, doc.Blocks[2].Kind}
	if kinds[0] != "table" || kinds[1] != "note" || kinds[2] != "table" {
		t.Errorf("block kinds = %v", kinds)
	}
}

// TestJSONRoundTrip marshals a document covering every block kind,
// parses it back, and re-marshals: the bytes must be identical, proving
// the schema survives encoding/json unchanged.
func TestJSONRoundTrip(t *testing.T) {
	tb := newTable("T", "a", "b")
	tb.Units = "cycles"
	tb.addRow("1", "x,y")
	d := newDoc().
		add(tb).
		renderOnly(&Grid{Title: "G", Cells: [][]int{{1, 2}, {3, 4}}}).
		renderOnly(&Heatmap{Title: "H", Values: [][]float64{{0.5, 1.25}}, Unit: "cycles"}).
		renderOnly(&Series{Title: "S", Labels: []string{"a"}, Values: []float64{3.5}, Unit: "W"}).
		notef("note %d\n", 7)

	first, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Document
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if parsed.Schema != SchemaVersion {
		t.Errorf("schema = %q", parsed.Schema)
	}
	second, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed bytes:\n first: %s\nsecond: %s", first, second)
	}

	// multi results emit an array of part documents.
	raw, err := multi{parts: []Result{newDoc().add(Note("x")), d}}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parts []Document
	if err := json.Unmarshal(raw, &parts); err != nil {
		t.Fatalf("multi JSON: %v", err)
	}
	if len(parts) != 2 || parts[0].Blocks[0].Kind != "note" || parts[1].Schema != SchemaVersion {
		t.Errorf("multi parts = %+v", parts)
	}
}

// TestEveryExperimentJSONValid runs each registered experiment in quick
// mode and checks JSON() emits a parseable document (or document array)
// tagged with the schema.
func TestEveryExperimentJSONValid(t *testing.T) {
	if testing.Short() {
		t.Skip("even quick mode simulates; skip under -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID(), func(t *testing.T) {
			res, err := r.Run(t.Context(), quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(raw) {
				t.Fatalf("invalid JSON: %s", raw)
			}
			if !strings.Contains(string(raw), SchemaVersion) {
				t.Errorf("missing schema tag: %s", raw[:min(len(raw), 120)])
			}
		})
	}
}

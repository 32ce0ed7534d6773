package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
)

// This file is the experiment layer's entire result-rendering pipeline.
// Every run function builds its result's output as a Doc — an ordered
// list of typed blocks (Table, Grid, Heatmap, Series, Note) — and the
// three Result forms all derive from that one model: Render() is the
// paper-style text, CSV() the spreadsheet form, JSON() the
// machine-readable Document schema (see DESIGN.md). The typed result
// embeds that Doc, and no experiment concatenates output strings
// itself.

// Block is one typed element of a result document.
type Block interface {
	// renderText is the block's human-readable form.
	renderText() string
	// csvText is the block's CSV form ("" for blocks with none).
	csvText() string
	// blockJSON is the block's wire form.
	blockJSON() BlockJSON
}

// Table accumulates rows and renders them with aligned columns, in the
// visual style of the paper's tables. Units optionally labels the cell
// units for machine readers (the text form carries units in the title).
type Table struct {
	Title   string
	Headers []string
	Units   string
	Rows    [][]string
}

func newTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

func (t *Table) addRowf(format string, cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf(format, v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, parts)
}

// Render returns the aligned text table.
func (t *Table) Render() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	sep := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

func (t *Table) renderText() string { return t.Render() }
func (t *Table) csvText() string    { return t.CSV() }
func (t *Table) blockJSON() BlockJSON {
	return BlockJSON{Kind: "table", Title: t.Title, Headers: t.Headers, Rows: t.Rows, Unit: t.Units}
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			sb.WriteString(c)
		}
	}
	sb.WriteByte('\n')
}

// Grid is a rows x cols grid of small integers, the format of the
// paper's mapping figures (Figures 4 and 8a).
type Grid struct {
	Title string
	Cells [][]int
}

func (g *Grid) renderText() string { return renderGrid(g.Title, g.Cells) }
func (g *Grid) csvText() string    { return "" }
func (g *Grid) blockJSON() BlockJSON {
	return BlockJSON{Kind: "grid", Title: g.Title, Cells: g.Cells}
}

// renderGrid draws a rows x cols grid of small integers.
func renderGrid(title string, grid [][]int) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	for _, row := range grid {
		sb.WriteString("  ")
		for _, v := range row {
			fmt.Fprintf(&sb, "%2d ", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Heatmap is a per-tile float field drawn with a shade-character ramp,
// the format of the paper's Figure 3.
type Heatmap struct {
	Title  string
	Values [][]float64
	Unit   string
}

func (h *Heatmap) renderText() string { return renderHeatmap(h.Title, h.Values, h.Unit) }
func (h *Heatmap) csvText() string    { return "" }
func (h *Heatmap) blockJSON() BlockJSON {
	return BlockJSON{Kind: "heatmap", Title: h.Title, Values: h.Values, Unit: h.Unit}
}

// renderHeatmap draws per-tile float values with a shade character
// ramp; unit labels the range line ("cycles" when empty, the
// historical default).
func renderHeatmap(title string, vals [][]float64, unit string) string {
	if unit == "" {
		unit = "cycles"
	}
	var mn, mx float64
	first := true
	for _, row := range vals {
		for _, v := range row {
			if first || v < mn {
				mn = v
			}
			if first || v > mx {
				mx = v
			}
			first = false
		}
	}
	ramp := []rune(" .:-=+*#%@")
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	for _, row := range vals {
		sb.WriteString("  ")
		for _, v := range row {
			idx := 0
			if mx > mn {
				idx = int((v - mn) / (mx - mn) * float64(len(ramp)-1))
			}
			ch := ramp[idx]
			fmt.Fprintf(&sb, "%c%c", ch, ch)
		}
		sb.WriteString("   ")
		for _, v := range row {
			fmt.Fprintf(&sb, "%5.1f ", v)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  (range %.2f .. %.2f %s)\n", mn, mx, unit)
	return sb.String()
}

// Series is one labelled numeric series with a unit — the bar figures
// of the paper, rendered as a horizontal ASCII bar chart.
type Series struct {
	Title  string
	Labels []string
	Values []float64
	Unit   string
}

func (s *Series) renderText() string { return renderBars(s.Title, s.Labels, s.Values, s.Unit) }
func (s *Series) csvText() string    { return "" }
func (s *Series) blockJSON() BlockJSON {
	return BlockJSON{Kind: "series", Title: s.Title, Labels: s.Labels, Series: s.Values, Unit: s.Unit}
}

// renderBars draws a horizontal ASCII bar chart. Bars scale to the
// largest value.
func renderBars(title string, labels []string, values []float64, unit string) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	var mx float64
	wl := 0
	for i, v := range values {
		if v > mx {
			mx = v
		}
		if len(labels[i]) > wl {
			wl = len(labels[i])
		}
	}
	const width = 40
	for i, v := range values {
		n := 0
		if mx > 0 {
			n = int(v / mx * width)
		}
		fmt.Fprintf(&sb, "  %-*s %-*s %.3f %s\n", wl, labels[i], width, strings.Repeat("#", n), v, unit)
	}
	return sb.String()
}

// Note is render-only prose (summary lines, paper citations). It
// carries its own separators, so Render() is a plain concatenation.
type Note string

func (n Note) renderText() string   { return string(n) }
func (n Note) csvText() string      { return "" }
func (n Note) blockJSON() BlockJSON { return BlockJSON{Kind: "note", Text: string(n)} }

// blockVis says which textual forms a block appears in (every block
// appears in JSON).
type blockVis int

const (
	visBoth blockVis = iota
	visRenderOnly
	visCSVOnly
)

// Doc is the typed result model every experiment builds: an ordered
// list of blocks from which all three Result forms derive.
type Doc struct {
	blocks []Block
	vis    []blockVis
}

func newDoc() *Doc { return &Doc{} }

// add appends a block visible in both Render and CSV.
func (d *Doc) add(b Block) *Doc {
	d.blocks = append(d.blocks, b)
	d.vis = append(d.vis, visBoth)
	return d
}

// renderOnly appends a block visible in Render (and JSON) only.
func (d *Doc) renderOnly(b Block) *Doc {
	d.blocks = append(d.blocks, b)
	d.vis = append(d.vis, visRenderOnly)
	return d
}

// csvOnly appends a block visible in CSV (and JSON) only — the
// machine-shaped flat tables behind figures whose text form is a grid
// or heatmap.
func (d *Doc) csvOnly(b Block) *Doc {
	d.blocks = append(d.blocks, b)
	d.vis = append(d.vis, visCSVOnly)
	return d
}

// notef appends a render-only formatted Note.
func (d *Doc) notef(format string, args ...any) *Doc {
	return d.renderOnly(Note(fmt.Sprintf(format, args...)))
}

// Render implements Result: the concatenated text form.
func (d *Doc) Render() string {
	var sb strings.Builder
	for i, b := range d.blocks {
		if d.vis[i] == visCSVOnly {
			continue
		}
		sb.WriteString(b.renderText())
	}
	return sb.String()
}

// CSV implements Result: the concatenated CSV form.
func (d *Doc) CSV() string {
	var sb strings.Builder
	for i, b := range d.blocks {
		if d.vis[i] == visRenderOnly {
			continue
		}
		sb.WriteString(b.csvText())
	}
	return sb.String()
}

// JSON implements Result: the Document wire form.
func (d *Doc) JSON() ([]byte, error) {
	return json.Marshal(d.Document())
}

// Document returns the machine-readable form of the doc.
func (d *Doc) Document() Document {
	doc := Document{Schema: SchemaVersion, Blocks: make([]BlockJSON, 0, len(d.blocks))}
	for _, b := range d.blocks {
		doc.Blocks = append(doc.Blocks, b.blockJSON())
	}
	return doc
}

// SchemaVersion identifies the JSON result schema emitted by JSON().
const SchemaVersion = "obmsim.result/v1"

// Document is the top-level machine-readable result: a schema tag plus
// the typed blocks. It round-trips through encoding/json.
type Document struct {
	Schema string      `json:"schema"`
	Blocks []BlockJSON `json:"blocks"`
}

// BlockJSON is the wire form of one block; Kind selects which fields
// are populated ("table", "grid", "heatmap", "series", "note", "text").
type BlockJSON struct {
	Kind    string      `json:"kind"`
	Title   string      `json:"title,omitempty"`
	Headers []string    `json:"headers,omitempty"`
	Rows    [][]string  `json:"rows,omitempty"`
	Cells   [][]int     `json:"cells,omitempty"`
	Values  [][]float64 `json:"values,omitempty"`
	Labels  []string    `json:"labels,omitempty"`
	Series  []float64   `json:"series,omitempty"`
	Unit    string      `json:"unit,omitempty"`
	Text    string      `json:"text,omitempty"`
}

// multi concatenates several Results into one.
type multi struct {
	parts []Result
}

func (m multi) Render() string {
	var sb strings.Builder
	for i, p := range m.parts {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(p.Render())
	}
	return sb.String()
}

func (m multi) CSV() string {
	var sb strings.Builder
	for i, p := range m.parts {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(p.CSV())
	}
	return sb.String()
}

// JSON implements Result: a JSON array of the parts' documents.
func (m multi) JSON() ([]byte, error) {
	parts := make([]json.RawMessage, len(m.parts))
	for i, p := range m.parts {
		b, err := p.JSON()
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	return json.Marshal(parts)
}

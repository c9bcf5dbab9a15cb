package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Row is one record of an experiment's output: free-form labels (dataset,
// algorithm, noise type, ...) plus named numeric values (accuracy, time, ...).
type Row struct {
	Labels map[string]string
	Values map[string]float64
}

// Table accumulates experiment rows and renders them in a stable format.
type Table struct {
	Title     string
	LabelCols []string
	ValueCols []string
	Rows      []Row
}

// NewTable creates a table with fixed column order.
func NewTable(title string, labelCols, valueCols []string) *Table {
	return &Table{Title: title, LabelCols: labelCols, ValueCols: valueCols}
}

// Add appends a row; labels and values are matched by the table's columns
// at render time, so extra keys are allowed (and ignored).
func (t *Table) Add(labels map[string]string, values map[string]float64) {
	t.Rows = append(t.Rows, Row{Labels: labels, Values: values})
}

// runColumns binds every value column an experiment table may carry to the
// RunResult field it reports.
var runColumns = map[string]func(RunResult) float64{
	"accuracy":    func(r RunResult) float64 { return r.Scores.Accuracy },
	"s3":          func(r RunResult) float64 { return r.Scores.S3 },
	"mnc":         func(r RunResult) float64 { return r.Scores.MNC },
	"sim_time":    func(r RunResult) float64 { return r.SimilarityTime.Seconds() },
	"assign_time": func(r RunResult) float64 { return r.AssignTime.Seconds() },
	"mem":         func(r RunResult) float64 { return float64(r.AllocBytes) },
}

// addRun appends a row reporting r in each of the table's value columns. It
// panics on a value column that runColumns does not bind.
func (t *Table) addRun(labels map[string]string, r RunResult) {
	values := make(map[string]float64, len(t.ValueCols))
	for _, c := range t.ValueCols {
		field, ok := runColumns[c]
		if !ok {
			panic("core: table column " + c + " is not a RunResult field")
		}
		values[c] = field(r)
	}
	t.Add(labels, values)
}

// Sort orders rows lexicographically by the label columns (numeric-aware
// for labels that parse as numbers).
func (t *Table) Sort() {
	sort.SliceStable(t.Rows, func(a, b int) bool {
		ra, rb := t.Rows[a], t.Rows[b]
		for _, c := range t.LabelCols {
			va, vb := ra.Labels[c], rb.Labels[c]
			if va == vb {
				continue
			}
			var fa, fb float64
			na, errA := fmt.Sscanf(va, "%g", &fa)
			nb, errB := fmt.Sscanf(vb, "%g", &fb)
			if na == 1 && nb == 1 && errA == nil && errB == nil && fa != fb {
				return fa < fb
			}
			return va < vb
		}
		return false
	})
}

// Render writes the table as aligned text columns.
func (t *Table) Render(w io.Writer) error {
	cols := append(append([]string{}, t.LabelCols...), t.ValueCols...)
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		line := make([]string, len(cols))
		for i, c := range t.LabelCols {
			line[i] = row.Labels[c]
		}
		for i, c := range t.ValueCols {
			v, ok := row.Values[c]
			if !ok {
				line[len(t.LabelCols)+i] = "-"
				continue
			}
			line[len(t.LabelCols)+i] = formatValue(c, v)
		}
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
		cells[r] = line
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	for i, c := range cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range cols {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, line := range cells {
		for i, cell := range line {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as RFC-4180 CSV with a header row; numeric
// values are written raw (no unit formatting) so downstream tooling can
// plot the series directly.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, t.LabelCols...), t.ValueCols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, 0, len(header))
		for _, c := range t.LabelCols {
			rec = append(rec, row.Labels[c])
		}
		for _, c := range t.ValueCols {
			v, ok := row.Values[c]
			if !ok {
				rec = append(rec, "")
				continue
			}
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatValue picks a format by column kind: times in seconds with 3
// decimals, memory in MB, scores with 3 decimals.
func formatValue(col string, v float64) string {
	switch {
	case strings.Contains(col, "time"):
		return fmt.Sprintf("%.3fs", v)
	case strings.Contains(col, "mem"):
		return fmt.Sprintf("%.1fMB", v/(1024*1024))
	case strings.Contains(col, "n") && col == "n":
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// Grid is a simple labelled matrix used by every experiment's text
// rendering: row labels × column labels with float64 cells (NaN
// renders as "N/A", matching the paper's tables).
type Grid struct {
	Title string
	Rows  []string
	Cols  []string
	Cells [][]float64
	// Note is an optional caption line.
	Note string
	// Format is the cell format (default "%.3f").
	Format string
}

// NewGrid allocates a grid filled with NaN.
func NewGrid(title string, rows, cols []string) *Grid {
	g := &Grid{Title: title, Rows: rows, Cols: cols, Format: "%.3f"}
	g.Cells = make([][]float64, len(rows))
	for i := range g.Cells {
		g.Cells[i] = make([]float64, len(cols))
		for j := range g.Cells[i] {
			g.Cells[i][j] = math.NaN()
		}
	}
	return g
}

// Set stores a value by row/column label.
func (g *Grid) Set(row, col string, v float64) {
	ri, ci := g.index(row, col)
	if ri >= 0 && ci >= 0 {
		g.Cells[ri][ci] = v
	}
}

// Get fetches a value by row/column label (NaN if absent).
func (g *Grid) Get(row, col string) float64 {
	ri, ci := g.index(row, col)
	if ri < 0 || ci < 0 {
		return math.NaN()
	}
	return g.Cells[ri][ci]
}

// Row returns a copy of the named row's cells.
func (g *Grid) Row(row string) []float64 {
	for i, r := range g.Rows {
		if r == row {
			return append([]float64(nil), g.Cells[i]...)
		}
	}
	return nil
}

// Col returns a copy of the named column's cells.
func (g *Grid) Col(col string) []float64 {
	for j, c := range g.Cols {
		if c == col {
			out := make([]float64, len(g.Rows))
			for i := range g.Rows {
				out[i] = g.Cells[i][j]
			}
			return out
		}
	}
	return nil
}

func (g *Grid) index(row, col string) (int, int) {
	ri, ci := -1, -1
	for i, r := range g.Rows {
		if r == row {
			ri = i
		}
	}
	for j, c := range g.Cols {
		if c == col {
			ci = j
		}
	}
	return ri, ci
}

// String renders the grid as an aligned text table.
func (g *Grid) String() string {
	var sb strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&sb, "%s\n", g.Title)
	}
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\t%s\n", strings.Join(g.Cols, "\t"))
	format := g.Format
	if format == "" {
		format = "%.3f"
	}
	for i, r := range g.Rows {
		cells := make([]string, len(g.Cols))
		for j := range g.Cols {
			v := g.Cells[i][j]
			if math.IsNaN(v) {
				cells[j] = "N/A"
			} else {
				cells[j] = fmt.Sprintf(format, v)
			}
		}
		fmt.Fprintf(w, "%s\t%s\n", r, strings.Join(cells, "\t"))
	}
	w.Flush()
	if g.Note != "" {
		fmt.Fprintf(&sb, "%s\n", g.Note)
	}
	return sb.String()
}

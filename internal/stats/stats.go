// Package stats provides the small numeric and table-rendering helpers
// the evaluation harness uses: harmonic/arithmetic means, speedups, and
// fixed-width text tables shaped like the paper's.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// HarmonicMean returns the harmonic mean of xs (the paper summarizes
// absolute IPC this way). Non-positive values make the mean undefined and
// return 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if !(x > 0) { // also rejects NaN (empty-run IPC artifacts)
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ArithMean returns the arithmetic mean (used for suite-average speedups).
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Speedup is IPCnew/IPCold, the paper's metric. Returns 0 when the
// baseline is non-positive.
func Speedup(ipcNew, ipcOld float64) float64 {
	if ipcOld <= 0 {
		return 0
	}
	return ipcNew / ipcOld
}

// Table is a fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table. It tolerates degenerate shapes from empty
// runs: no headers (column widths come from the rows), ragged rows wider
// than the header, and tables with no rows at all.
func (t *Table) Render(w io.Writer) {
	nCols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > nCols {
			nCols = len(r)
		}
	}
	widths := make([]int, nCols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", max(len(t.Title), total)))
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprint(w, c)
			}
		}
		fmt.Fprintln(w)
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		fmt.Fprintln(w, strings.Repeat("-", total))
	}
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// SplitMix64 is the splitmix64 output function: a strong 64-bit mixer of
// x plus the golden-ratio increment. The explorer's audit order, the
// sampler's random offsets and the synthetic generator's layout draw
// from it, so changing it moves cells, plans and programs.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Pct formats a speedup as the paper's percentage improvement
// ("1.20x" → "+20.0%").
func Pct(speedup float64) string {
	return fmt.Sprintf("%+.1f%%", (speedup-1)*100)
}

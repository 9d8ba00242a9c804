package sqlkit

import (
	"sort"
	"strings"
)

// Result is the output of one statement: column names and rows for SELECT,
// Affected for DML.
type Result struct {
	Cols     []string
	Rows     [][]Value
	Affected int
}

// NumRows reports the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// Fingerprint returns an order-insensitive canonical encoding of the result
// rows. Two results with equal fingerprints contain the same bag of rows —
// the semantic-equivalence test used for NL2SQL grading and logic-bug
// detection (paper Sections II-A and II-B).
func (r *Result) Fingerprint() string {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = rowKey(row)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

// EqualBag reports whether two results contain the same multiset of rows,
// ignoring row order and column names.
func (r *Result) EqualBag(o *Result) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	return r.Fingerprint() == o.Fingerprint()
}

// EqualOrdered reports whether two results contain the same rows in the same
// order.
//
//llmdm:allow reach ROADMAP item 7 pins when row order matters, and its grader tests compare with it
func (r *Result) EqualOrdered(o *Result) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Rows {
		if rowKey(r.Rows[i]) != rowKey(o.Rows[i]) {
			return false
		}
	}
	return true
}

// Format renders the result as an aligned text table for the CLI tools.
func (r *Result) Format() string {
	if len(r.Cols) == 0 {
		return ""
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			if ci >= len(widths) {
				continue
			}
			s := v.Display()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Cols)
	sep := make([]string, len(r.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is an experiment's result as its author declared it: the columns,
// once, and one row of rendered cells per result. The same table is the
// CSV under results/ and the Markdown in the generated report.
type Table struct {
	Columns []string
	Rows    [][]string
}

// NewTable declares a table's columns.
func NewTable(columns ...string) *Table { return &Table{Columns: columns} }

// Add appends one row, rendering each cell with fmt.Sprint (pre-format
// floats: %v switches to exponents).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV emits the header and the rows, comma-separated.
func (t *Table) WriteCSV(w io.Writer) error {
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Markdown renders the table in pipe syntax.
func (t *Table) Markdown() string {
	var b strings.Builder
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	line(t.Columns)
	b.WriteString(strings.Repeat("|---", len(t.Columns)) + "|\n")
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

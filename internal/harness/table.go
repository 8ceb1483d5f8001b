package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is one table of an artifact, declared once: a title, its columns
// and footer lines. Text prints it as an aligned text table and CSV writes
// the same rows as a CSV file, so a column's header and value are named in
// one place for both.
type Table struct {
	title string // printed before the header; may span lines
	cols  []col
	rows  int
	// faults counts the faulted cells a row's statistics exclude, for its
	// [N faulted] mark; nil for a table without per-row marks.
	faults func(row int) int
	foot   []string // text lines printed after the rows
}

// col is one column of a Table. Its text cell is value printed with verb
// and padded to width; its CSV cell is value with floats in f4.
type col struct {
	head string // text header
	// width pads the text cell: negative left-aligns, and 0 leaves the
	// cell unpadded and drops it, separator included, from a row where it
	// is empty (a trailing note).
	width int
	// verb formats the text cell; "" keeps the column out of the text. A
	// verb ending in %% prints a fraction as a percentage.
	verb  string
	name  string // CSV header; "" keeps the column out of the CSV
	value func(row int) any
}

// shown is a cell whose text is not its value: a fault label or a blank in
// the text table, the value itself (NaN) in the CSV.
type shown struct {
	text  string
	value any
}

// cpiCell shows a CPI a fault left NaN as FAULT in the text table.
func cpiCell(v float64) any {
	if math.IsNaN(v) {
		return shown{"FAULT", v}
	}
	return v
}

// faultMark annotates a rendered row whose statistics exclude n faulted
// cells. Empty when n == 0, so healthy output is byte-identical to a build
// without the fault machinery.
func faultMark(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("  [%d faulted]", n)
}

func (c col) text(row int) string {
	v := c.value(row)
	if s, ok := v.(shown); ok {
		return fmt.Sprintf("%*s", c.width, s.text)
	}
	if strings.HasSuffix(c.verb, "%%") {
		v = 100 * v.(float64)
	}
	return fmt.Sprintf("%*s", c.width, fmt.Sprintf(c.verb, v))
}

// Text prints the table: its title, a header line when any column has a
// header, one line per row with its fault mark, and the footer lines.
func (t Table) Text(w io.Writer) {
	fmt.Fprintln(w, t.title)
	var head strings.Builder
	named := false
	for _, c := range t.cols {
		if c.verb != "" {
			fmt.Fprintf(&head, " %*s", c.width, c.head)
			named = named || c.head != ""
		}
	}
	if named {
		fmt.Fprintf(w, " %s\n", head.String())
	}
	for i := 0; i < t.rows; i++ {
		line := " "
		for _, c := range t.cols {
			if c.verb == "" {
				continue
			}
			if cell := c.text(i); cell != "" || c.width != 0 {
				line += " " + cell
			}
		}
		if t.faults != nil {
			line += faultMark(t.faults(i))
		}
		fmt.Fprintln(w, line)
	}
	for _, l := range t.foot {
		fmt.Fprintln(w, l)
	}
}

// CSV writes the table's CSV columns: a header row, then one row per table
// row.
func (t Table) CSV(w io.Writer) error {
	var header []string
	rows := make([][]string, t.rows)
	for _, c := range t.cols {
		if c.name == "" {
			continue
		}
		header = append(header, c.name)
		for i := range rows {
			rows[i] = append(rows[i], csvCell(c.value(i)))
		}
	}
	return writeCSV(w, header, rows)
}

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	return csv.NewWriter(w).WriteAll(append([][]string{header}, rows...))
}

func csvCell(v any) string {
	switch v := v.(type) {
	case shown:
		return csvCell(v.value)
	case float64:
		return f4(v)
	}
	return fmt.Sprint(v)
}

// f4 renders a CSV float cell with four decimals — the precision every
// numeric column of the artifacts uses. Pinned by TestCSVFloatFormatPinned
// so the artifact format cannot drift silently.
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

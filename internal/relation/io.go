package relation

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Dump writes the table as CSV with a typed header. Each header cell is
// "name:kind" with kind one of int, string, or date; null cells are written
// as the sentinel `\N`. A string value that could be mistaken for the
// sentinel — one or more backslashes followed by N, such as the literal
// string `\N` itself — is escaped with one extra leading backslash, which
// Load strips, so every value round-trips exactly. The format round-trips
// through Load.
func (t *Table) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)

	header := make([]string, len(t.columns))
	for i, c := range t.columns {
		header[i] = c + ":" + KindName(t.cols[i].kind)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: dump %s: %w", t.name, err)
	}

	record := make([]string, len(t.columns))
	for r := range t.rows {
		for i := range record {
			switch v := t.Cell(r, i); v.Kind {
			case KindNull:
				record[i] = "\\N"
			case KindInt, KindDate:
				record[i] = strconv.FormatInt(v.Int, 10)
			case KindString:
				if sentinelLike(v.Str) {
					record[i] = `\` + v.Str
				} else {
					record[i] = v.Str
				}
			}
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("relation: dump %s: %w", t.name, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("relation: dump %s: %w", t.name, err)
	}
	return bw.Flush()
}

// Load reads a table in the Dump format. The table is named name regardless
// of its origin.
func Load(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: load %s: reading header: %w", name, err)
	}
	columns := make([]string, len(header))
	kinds := make([]Kind, len(header))
	for i, h := range header {
		col, kindName, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("relation: load %s: header cell %q lacks a :kind suffix", name, h)
		}
		columns[i] = col
		if kinds[i], ok = ParseKind(kindName); !ok {
			return nil, fmt.Errorf("relation: load %s: unknown kind %q", name, kindName)
		}
	}
	t := NewTable(name, columns...)
	for i, k := range kinds {
		t.Declare(i, k)
	}

	// line is the file line a malformed record is reported at. The header
	// occupies line 1, so the first data record is line 2 — the number an
	// editor or `sed -n` shows for the offending row (the export format
	// never quotes, so records never span lines).
	line := 2
	for {
		record, err := cr.Read()
		if err == io.EOF {
			t.CommitRows(line - 2)
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: load %s: line %d: %w", name, line, err)
		}
		if len(record) != len(columns) {
			return nil, fmt.Errorf("relation: load %s: line %d has %d fields, want %d",
				name, line, len(record), len(columns))
		}
		for i, cell := range record {
			if cell == `\N` {
				t.AppendNull(i)
				continue
			}
			if kinds[i] == KindString {
				if len(cell) > 1 && cell[0] == '\\' && sentinelLike(cell[1:]) {
					cell = cell[1:] // Dump escaped a sentinel-like literal
				}
				t.AppendString(i, cell)
				continue
			}
			n, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relation: load %s: line %d column %s: %w", name, line, columns[i], err)
			}
			t.AppendInt(i, n)
		}
		line++
	}
}

// kindNames are the kinds' names in the CSV header and the store's
// segment header.
var kindNames = [...]string{KindInt: "int", KindString: "string", KindDate: "date"}

// KindName returns the header name of a column of kind k: "int",
// "string" or "date". An undeclared column (KindNull) is named a string
// column: it holds only nulls, which a column of any kind reads back.
func KindName(k Kind) string {
	if k == KindNull {
		return kindNames[KindString]
	}
	return kindNames[k]
}

// ParseKind returns the kind a header names, and false for a name that is
// not "int", "string" or "date".
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == name {
			return Kind(k), true
		}
	}
	return KindNull, false
}

// sentinelLike reports whether s collides with the null sentinel's escape
// space: one or more backslashes followed by a final N. Dump prepends one
// backslash to such strings and Load strips it, a bijection that keeps `\N`
// itself unambiguous (the literal string `\N` dumps as `\\N`, `\\N` as
// `\\\N`, and so on).
func sentinelLike(s string) bool {
	if len(s) < 2 || s[len(s)-1] != 'N' {
		return false
	}
	for i := 0; i < len(s)-1; i++ {
		if s[i] != '\\' {
			return false
		}
	}
	return true
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

// TestCellsAgreeAcrossPaths is the representation differential of typed
// columns: every way rows reach a table gives the same cells — kind, value
// and null — and the same kind for every column that holds a non-null
// value. The paths: one AppendRows into an empty table that no header
// declared (the reference), one AppendRows per row, Dump then Load, store
// Create then Open, and follow's path, where an empty log loaded from a
// header-only Log.csv and created as a store takes its rows from two polls
// (logTail.poll, Table.AppendTable, Store.AppendTable) and is then
// reopened. The rows have a string column with nulls and a column that is
// all null.
func TestCellsAgreeAcrossPaths(t *testing.T) {
	cols := []string{"Lid", "Date", "User", "Patient", "Note", "Gone"}
	var rows [][]relation.Value
	for i := range 40 {
		note := relation.String(fmt.Sprintf("note %d, \"quoted\"", i))
		switch i % 4 {
		case 0:
			note = relation.Null()
		case 1:
			note = relation.String(`\N`)
		}
		rows = append(rows, []relation.Value{relation.Int(int64(i + 1)), relation.Date(i / 5),
			relation.Int(int64(10000 + i%7)), relation.Int(int64(1 + i%11)), note, relation.Null()})
	}
	ref := relation.NewTable("Log", cols...)
	ref.AppendRows(rows)

	paths := map[string]*relation.Table{}
	many := relation.NewTable("Log", cols...)
	for _, row := range rows {
		many.AppendRows([][]relation.Value{row})
	}
	paths["one AppendRows per row"] = many

	var csv bytes.Buffer
	if err := ref.Dump(&csv); err != nil {
		t.Fatal(err)
	}
	loaded, err := relation.Load("Log", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	paths["Dump, Load"] = loaded

	db := relation.NewDatabase()
	db.AddTable(ref)
	dir := t.TempDir()
	if _, err := store.Create(dir, db); err != nil {
		t.Fatal(err)
	}
	_, opened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths["Create, Open"] = opened.MustTable("Log")

	header, body, _ := bytes.Cut(csv.Bytes(), []byte("\n"))
	header = append(header, '\n')
	follow, err := relation.Load("Log", bytes.NewReader(header))
	if err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	logPath := filepath.Join(data, "Log.csv")
	if err := os.WriteFile(logPath, header, 0o644); err != nil {
		t.Fatal(err)
	}
	followDB := relation.NewDatabase()
	followDB.AddTable(follow)
	storeDir := t.TempDir()
	st, err := store.Create(storeDir, followDB)
	if err != nil {
		t.Fatal(err)
	}
	tail := &logTail{path: logPath}
	cut := bytes.Index(body, []byte("\n21,")) + 1
	for _, chunk := range [][]byte{nil, body[:cut], body[cut:]} {
		if err := appendFile(logPath, chunk); err != nil {
			t.Fatal(err)
		}
		batch, err := tail.poll(follow)
		if err != nil {
			t.Fatal(err)
		}
		if numRows(batch) == 0 {
			continue
		}
		follow.AppendTable(batch)
		if err := st.AppendTable("Log", batch); err != nil {
			t.Fatal(err)
		}
	}
	paths["follow polls"] = follow
	_, reopened, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	paths["follow polls, Open"] = reopened.MustTable("Log")

	for name, got := range paths {
		if got.NumRows() != ref.NumRows() {
			t.Errorf("%s: %d rows, want %d", name, got.NumRows(), ref.NumRows())
			continue
		}
		for c := range cols {
			if k := ref.ColumnKind(c); k != relation.KindNull && got.ColumnKind(c) != k {
				t.Errorf("%s: column %s has kind %d, want %d", name, cols[c], got.ColumnKind(c), k)
			}
			for r := range ref.NumRows() {
				if g, w := got.Cell(r, c), ref.Cell(r, c); g != w {
					t.Errorf("%s: row %d column %s = %#v, want %#v", name, r, cols[c], g, w)
				}
			}
		}
	}
}

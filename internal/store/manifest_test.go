package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ehr"
	"repro/internal/relation"
)

// TestOpenStaysInsideItsDirectory pins that a manifest names segment files
// in the store directory and nowhere else: a table name that is empty, a
// path, "." or "..", or that the manifest lists twice, fails Open before
// any segment is read, and Create and SaveTable refuse such names too.
func TestOpenStaysInsideItsDirectory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b")
	if _, err := Create(dir, testDB()); err != nil {
		t.Fatal(err)
	}
	// A segment the escaping name would reach, were it followed.
	seg, err := os.ReadFile(filepath.Join(dir, "Events.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "Outside.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../../Outside", "", ".", "..", "x/Events", "/Events", "Log"} {
		bad := bytes.Replace(man, []byte(`"name": "Events"`), []byte(`"name": "`+name+`"`), 1)
		if err := os.WriteFile(filepath.Join(dir, ManifestName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir); err == nil {
			t.Errorf("Open accepted a manifest naming table %q", name)
		}
	}

	for _, name := range []string{"../Outside", ""} {
		db := relation.NewDatabase()
		db.AddTable(relation.NewTable(name, "A"))
		if _, err := Create(t.TempDir(), db); err == nil {
			t.Errorf("Create accepted table name %q", name)
		}
	}
	s, err := Create(t.TempDir(), testDB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable(relation.NewTable("../Outside", "A")); err == nil {
		t.Error("SaveTable accepted table name ../Outside")
	}
}

// TestOpenRefusesMismatchedKind pins the one checksum-valid record Open
// does not treat as a torn tail: a value whose kind is not its column's.
// An earlier writer stored such records whole (an int appended to a column
// declared string when its table was created empty), so truncating it away
// would drop rows that were durably written. Open reports it and leaves the
// segment as it is; AppendRows refuses to write one.
func TestOpenRefusesMismatchedKind(t *testing.T) {
	db := relation.NewDatabase()
	empty := relation.NewTable("Log", "Lid", "Note") // undeclared: stored as string columns
	db.AddTable(empty)
	dir := t.TempDir()
	s, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	row := [][]relation.Value{{relation.Int(1), relation.Null()}}
	if err := s.AppendRows("Log", row); err == nil || !strings.Contains(err.Error(), "holds string values") {
		t.Fatalf("AppendRows of an int to a string column: err = %v", err)
	}
	batch := relation.NewTable("Log", "Lid", "Note")
	batch.AppendRows(row)
	if err := s.AppendTable("Log", batch); err == nil {
		t.Fatal("AppendTable of an int column to a string column succeeded")
	}

	path := s.segPath("Log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendRecord(nil, encodeRows(row))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "value kind does not match") {
		t.Fatalf("Open of a record with an int in a string column: err = %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Open changed the segment from %d to %d bytes", len(before), len(after))
	}
}

// FuzzManifest throws arbitrary manifests at Open over the segments of a
// Tiny store. Under fuzz Open never panics, and a store it opens holds
// exactly the manifest's tables, in its order, with its columns. The store
// sits two directories below the test's temporary root, so a name that
// escaped it would still land inside the root. Seeds: the Tiny store's
// MANIFEST.json, and copies naming a table outside the directory, listing
// one twice, naming one "", and overstating a row count.
func FuzzManifest(f *testing.F) {
	src := f.TempDir()
	if _, err := Create(src, ehr.Generate(ehr.Tiny()).DB); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(src, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	segs := map[string][]byte{}
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			if segs[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"name": "Labs"`), []byte(`"name": "../../Labs"`), 1))
	f.Add(bytes.Replace(seed, []byte(`"name": "Labs"`), []byte(`"name": "Log"`), 1))
	f.Add(bytes.Replace(seed, []byte(`"name": "Labs"`), []byte(`"name": ""`), 1))
	f.Add(bytes.Replace(seed, []byte(`"rows": `), []byte(`"rows": 1000000000000`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "a", "b")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, db, err := Open(dir)
		if err != nil {
			return
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("Open accepted a manifest that does not parse: %v", err)
		}
		var names []string
		for _, mt := range m.Tables {
			names = append(names, mt.Name)
			if got := db.MustTable(mt.Name).Columns(); !slices.Equal(got, mt.Columns) {
				t.Fatalf("table %s opened with columns %v, manifest %v", mt.Name, got, mt.Columns)
			}
		}
		if got := db.TableNames(); !slices.Equal(got, names) {
			t.Fatalf("opened tables %v, manifest %v", got, names)
		}
	})
}

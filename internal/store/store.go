package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relation"
)

// ManifestName is the store directory's manifest file; its presence is
// what makes a directory a store (see IsStore).
const ManifestName = "MANIFEST.json"

// manifestFormat is the on-disk format version; Open refuses manifests
// from a future format rather than misreading them.
const manifestFormat = 1

// manifest is the store's durable catalog: the table schemas in
// registration order and each table's row-count watermark. Row counts are
// watermarks, not authority — the checksummed segments are authoritative,
// and Open reconciles the manifest after torn-tail recovery — so a crash
// between a segment append and the manifest rewrite loses nothing.
type manifest struct {
	Format int             `json:"format"`
	Tables []manifestTable `json:"tables"`
}

// manifestTable is one table's schema and row watermark.
type manifestTable struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Kinds   []string `json:"kinds"`
	Rows    int      `json:"rows"`
}

// Store is an open store directory. It is not synchronized: like the
// relation.Table load phase, writes (AppendRows, SaveWarmState) require
// exclusive access.
type Store struct {
	dir string
	man manifest
}

// IsStore reports whether dir contains a store (its manifest exists).
func IsStore(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// segPath returns the segment path for a table name.
func (s *Store) segPath(table string) string {
	return filepath.Join(s.dir, table+".seg")
}

// Create writes a new store at dir holding every table of db — one segment
// per table, in registration order — plus the manifest, and returns the
// open store. An existing store at dir is overwritten table by table;
// stray segments from a previous schema are not deleted, but the manifest
// names only db's tables, and Open reads only manifest tables. Any
// existing warm-start snapshot is removed: it described the previous
// contents.
func Create(dir string, db *relation.Database) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: manifest{Format: manifestFormat}}
	for _, name := range db.TableNames() {
		t := db.MustTable(name)
		if !validTableName(name) {
			return nil, fmt.Errorf("store: table name %q is not a file name in the store directory", name)
		}
		if err := writeSegment(s.segPath(name), t); err != nil {
			return nil, fmt.Errorf("store: writing segment %s: %w", name, err)
		}
		s.man.Tables = append(s.man.Tables, manifestTable{
			Name:    name,
			Columns: t.Columns(),
			Kinds:   kindNames(t),
			Rows:    t.NumRows(),
		})
	}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	// A snapshot left over from earlier contents must never be trusted
	// against the new ones.
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return s, nil
}

// Open reads the store at dir and reconstructs its database: every
// manifest table is streamed from its segment into a relation.Table, in
// manifest order, so the reopened database has the same table order — and
// therefore the same schema-version arithmetic — as the session that wrote
// it. Torn segment tails (a crash mid-append) are truncated back to the
// last checksum-valid record before the rows are served, and the manifest
// watermarks are reconciled to what actually survived; Open after a crash
// is therefore equivalent to Open after a clean shutdown of the surviving
// prefix.
func Open(dir string) (*Store, *relation.Database, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	s := &Store{dir: dir}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return nil, nil, fmt.Errorf("store: parsing manifest: %w", err)
	}
	if s.man.Format != manifestFormat {
		return nil, nil, fmt.Errorf("store: manifest format %d not supported (want %d)", s.man.Format, manifestFormat)
	}

	for i, mt := range s.man.Tables {
		if !validTableName(mt.Name) {
			return nil, nil, fmt.Errorf("store: manifest table name %q is not a file name in the store directory", mt.Name)
		}
		for _, prev := range s.man.Tables[:i] {
			if prev.Name == mt.Name {
				return nil, nil, fmt.Errorf("store: manifest lists table %q twice", mt.Name)
			}
		}
	}

	db := relation.NewDatabase()
	dirty := false
	for i := range s.man.Tables {
		mt := &s.man.Tables[i]
		res, err := readSegment(s.segPath(mt.Name), mt.Name, mt.Rows)
		if err != nil {
			return nil, nil, err
		}
		if got, want := res.table.Columns(), mt.Columns; !slices.Equal(got, want) {
			return nil, nil, fmt.Errorf("store: segment %s columns %v do not match manifest %v", mt.Name, got, want)
		}
		if got, want := kindNames(res.table), mt.Kinds; !slices.Equal(got, want) {
			return nil, nil, fmt.Errorf("store: segment %s kinds %v do not match manifest %v", mt.Name, got, want)
		}
		if res.validEnd < res.fileSize {
			if err := os.Truncate(s.segPath(mt.Name), res.validEnd); err != nil {
				return nil, nil, fmt.Errorf("store: truncating torn tail of %s: %w", mt.Name, err)
			}
			recoveries.Add(1)
			dirty = true
		}
		if mt.Rows != res.table.NumRows() {
			mt.Rows = res.table.NumRows()
			dirty = true
		}
		db.AddTable(res.table)
	}
	if dirty {
		if err := s.writeManifest(); err != nil {
			return nil, nil, err
		}
	}
	return s, db, nil
}

// AppendRows appends rows to the named table's segment as one checksummed
// record, syncs the segment to disk, and advances the manifest watermark.
// This is the follow-mode persistence primitive: each poll's batch of new
// log rows becomes one durable record, and a crash mid-write leaves a torn
// tail the next Open truncates away. Rows must match the table's column
// count, and each non-null value its column's kind: a record Open would
// refuse is never written. Appending zero rows is a no-op.
func (s *Store) AppendRows(table string, rows [][]relation.Value) error {
	if len(rows) == 0 {
		return nil
	}
	mt, err := s.appendTarget(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(mt.Columns) {
			return fmt.Errorf("store: append to %s: row has %d values, want %d", table, len(row), len(mt.Columns))
		}
		for i, v := range row {
			if v.Kind != relation.KindNull && relation.KindName(v.Kind) != mt.Kinds[i] {
				return fmt.Errorf("store: append to %s: column %s holds %s values, not %s", table, mt.Columns[i], mt.Kinds[i], relation.KindName(v.Kind))
			}
		}
	}
	return s.appendRecord(mt, encodeRows(rows), len(rows))
}

// AppendTable is AppendRows for the rows of batch, encoded from its typed
// columns: batch must have the table's column count and, column by column,
// its kind, or no declared kind (a column of nulls).
func (s *Store) AppendTable(table string, batch *relation.Table) error {
	if batch.NumRows() == 0 {
		return nil
	}
	mt, err := s.appendTarget(table)
	if err != nil {
		return err
	}
	if len(batch.Columns()) != len(mt.Columns) {
		return fmt.Errorf("store: append to %s: rows have %d values, want %d", table, len(batch.Columns()), len(mt.Columns))
	}
	for i := range mt.Columns {
		if k := batch.ColumnKind(i); k != relation.KindNull && relation.KindName(k) != mt.Kinds[i] {
			return fmt.Errorf("store: append to %s: column %s holds %s values, not %s", table, mt.Columns[i], mt.Kinds[i], relation.KindName(k))
		}
	}
	return s.appendRecord(mt, encodeRowBatch(batch, 0, batch.NumRows()), batch.NumRows())
}

// appendTarget returns the manifest entry of the table an append names.
func (s *Store) appendTarget(table string) (*manifestTable, error) {
	for i := range s.man.Tables {
		if mt := &s.man.Tables[i]; mt.Name == table {
			if len(mt.Columns) == 0 {
				return nil, fmt.Errorf("store: append to %s: %w", table, errZeroWidthRows)
			}
			return mt, nil
		}
	}
	return nil, fmt.Errorf("store: no table %q to append to", table)
}

// appendRecord appends payload, holding rows rows, to mt's segment as one
// record, syncs it and advances the manifest watermark.
func (s *Store) appendRecord(mt *manifestTable, payload []byte, rows int) error {
	table := mt.Name
	// Chaos seam: injectable append failure, standing in for a full disk
	// or yanked volume under the segment file.
	if err := fault.Inject("store.segment.append"); err != nil {
		return fmt.Errorf("store: append to %s: %w", table, err)
	}
	f, err := os.OpenFile(s.segPath(table), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: append to %s: %w", table, err)
	}
	rec := appendRecord(nil, payload)
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return fmt.Errorf("store: append to %s: %w", table, err)
	}
	bytesWritten.Add(int64(len(rec)))
	timed := obs.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	// Chaos seam: injectable fsync failure — the classic silent-loss spot,
	// where an error means the record may or may not be durable.
	err = fault.Inject("store.segment.sync")
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", table, err)
	}
	if timed {
		syncNanos.Observe(time.Since(t0).Nanoseconds())
	}
	appends.Add(1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: append to %s: %w", table, err)
	}
	mt.Rows += rows
	return s.writeManifest()
}

// SaveTable writes (or replaces) one table's segment and manifest entry in
// the open store, leaving every other table untouched. This is the
// persistence path for derived tables computed after Create — above all the
// federation's merged-log Groups table, which a shard store persists so the
// next federate.Join warm-starts from the identical copy instead of
// retraining. A new table is appended to the manifest (after every existing
// table, so reopened table order — and with it the schema-version
// arithmetic — is reproducible); an existing entry keeps its position. A
// warm-start snapshot is not removed: its own schema fingerprint already
// rejects it if the saved table changed what the snapshot described.
func (s *Store) SaveTable(t *relation.Table) error {
	name := t.Name()
	if !validTableName(name) {
		return fmt.Errorf("store: table name %q is not a file name in the store directory", name)
	}
	if err := writeSegment(s.segPath(name), t); err != nil {
		return fmt.Errorf("store: writing segment %s: %w", name, err)
	}
	mt := manifestTable{
		Name:    name,
		Columns: t.Columns(),
		Kinds:   kindNames(t),
		Rows:    t.NumRows(),
	}
	replaced := false
	for i := range s.man.Tables {
		if s.man.Tables[i].Name == name {
			s.man.Tables[i] = mt
			replaced = true
			break
		}
	}
	if !replaced {
		s.man.Tables = append(s.man.Tables, mt)
	}
	return s.writeManifest()
}

// writeManifest writes the manifest atomically (temp file + rename), so a
// crash mid-write leaves the previous manifest intact — watermarks may lag
// the segments, never dangle past them unreconciled.
func (s *Store) writeManifest() error {
	data, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, "."+ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	bytesWritten.Add(int64(len(data) + 1))
	return os.Rename(tmp, filepath.Join(s.dir, ManifestName))
}

// validTableName reports whether a table name names a segment file inside
// the store directory: one path element, not empty, "." or "..".
func validTableName(name string) bool {
	return name != "" && name != "." && name != ".." && filepath.Base(name) == name
}

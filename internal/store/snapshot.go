package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// snapshotName is the warm-start snapshot file inside a store directory.
const snapshotName = "WARM.snap"

// snapMagic opens the snapshot file; the rest is one framed, checksummed
// record in the segment format. A file of an earlier format (EBWRM01, which
// also listed plan-cache keys) fails the magic check and reads as stale.
const snapMagic = "EBWRM02\n"

// ErrNoSnapshot reports that the store has no warm-start snapshot; the
// caller starts cold.
var ErrNoSnapshot = errors.New("store: no warm-start snapshot")

// ErrStaleSnapshot reports that a snapshot exists but no longer describes
// the database — the schema changed, the log shrank, or the file is
// corrupt. A stale snapshot is never partially trusted: the caller
// discards it and starts cold, exactly as if it did not exist.
var ErrStaleSnapshot = errors.New("store: warm-start snapshot is stale")

// MaskState is one template's serialized explained-rows mask, with the
// watermarks that say what the mask covered when captured: Rows is the
// audited log prefix the bits span, HistRows the history-log length the
// explanations were computed against (the two differ only mid-refresh).
// The install rules live in the core layer: an append-monotone template's
// mask is a reusable prefix whenever Rows has not passed the current log;
// any other template's mask is only valid at exactly its watermarks.
type MaskState struct {
	Template string
	Rows     int
	HistRows int
	Bits     *bitset.Bits
}

// WarmState is everything a restarted auditor needs to resume warm: the
// mask cache, and the watermarks and schema fingerprint that gate whether
// any of it is still trustworthy. SchemaVersion and the fingerprint are stamped by
// SaveWarmState and validated by LoadWarmState; LogRows records how much
// of LogTable the capture had seen.
type WarmState struct {
	SchemaVersion uint64
	LogTable      string
	LogRows       int
	Masks         []MaskState
}

// SaveWarmState captures ws against db — stamping the schema version, the
// schema fingerprint, and the LogTable row watermark — and writes it
// atomically as the store's snapshot, replacing any previous one.
// ws.LogTable must name a registered table.
func (s *Store) SaveWarmState(db *relation.Database, ws *WarmState) error {
	log := db.Table(ws.LogTable)
	if log == nil {
		return fmt.Errorf("store: warm state names unknown log table %q", ws.LogTable)
	}
	ws.SchemaVersion = db.SchemaVersion()
	ws.LogRows = log.NumRows()

	buf := frameSnapshot(encodeWarmState(ws, fingerprint(db, ws.LogTable)))
	tmp := filepath.Join(s.dir, "."+snapshotName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, snapshotName))
}

// LoadWarmState reads and validates the store's snapshot against db. It
// returns ErrNoSnapshot when none exists and ErrStaleSnapshot when the
// snapshot cannot be trusted: a corrupt or truncated file, a schema
// version or fingerprint that no longer matches (a table was added,
// replaced, or an event table changed size), or a log watermark past the
// current log (the log shrank — the snapshot describes rows that no
// longer exist). A valid result still only warms what the core layer's
// install rules accept; validation here guarantees the snapshot describes
// this database, not that every mask is reusable.
func (s *Store) LoadWarmState(db *relation.Database) (*WarmState, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoSnapshot
		}
		return nil, err
	}
	ws, fp, err := parseSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStaleSnapshot, err)
	}
	if ws.SchemaVersion != db.SchemaVersion() {
		return nil, fmt.Errorf("%w: schema version %d, database at %d",
			ErrStaleSnapshot, ws.SchemaVersion, db.SchemaVersion())
	}
	if fp != fingerprint(db, ws.LogTable) {
		return nil, fmt.Errorf("%w: schema fingerprint mismatch", ErrStaleSnapshot)
	}
	log := db.Table(ws.LogTable)
	if log == nil {
		return nil, fmt.Errorf("%w: log table %q missing", ErrStaleSnapshot, ws.LogTable)
	}
	if ws.LogRows > log.NumRows() {
		return nil, fmt.Errorf("%w: log watermark %d past current %d rows",
			ErrStaleSnapshot, ws.LogRows, log.NumRows())
	}
	return ws, nil
}

// frameSnapshot returns the snapshot file bytes for a record payload: the
// magic, then the payload as one framed, checksummed record.
func frameSnapshot(payload []byte) []byte {
	return appendRecord([]byte(snapMagic), payload)
}

// parseSnapshot validates the snapshot file bytes and decodes the warm
// state and its recorded fingerprint. Any malformation is an error — a
// snapshot, unlike a segment, has no valid prefix worth salvaging.
func parseSnapshot(data []byte) (*WarmState, uint64, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, errors.New("bad magic")
	}
	rec := data[len(snapMagic):]
	if len(rec) < 8 {
		return nil, 0, errors.New("truncated frame")
	}
	size := binary.LittleEndian.Uint32(rec[0:])
	sum := binary.LittleEndian.Uint32(rec[4:])
	if uint64(size) != uint64(len(rec)-8) {
		return nil, 0, errors.New("frame length mismatch")
	}
	payload := rec[8:]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, errors.New("checksum mismatch")
	}
	return decodeWarmState(payload)
}

// fingerprint hashes the database's shape: every table's name, columns,
// and kinds, plus the row count of every table except logTable (which is
// expected to grow — its progress is the LogRows watermark, not part of
// the shape). FNV-64a with length-prefixed fields, so field boundaries
// cannot alias.
func fingerprint(db *relation.Database, logTable string) uint64 {
	h := fnv.New64a()
	var num [binary.MaxVarintLen64]byte
	writeNum := func(n uint64) {
		h.Write(num[:binary.PutUvarint(num[:], n)])
	}
	writeStr := func(s string) {
		writeNum(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, name := range db.TableNames() {
		t := db.MustTable(name)
		writeStr(name)
		cols := t.Columns()
		writeNum(uint64(len(cols)))
		for i, c := range cols {
			writeStr(c)
			writeStr(relation.KindName(t.ColumnKind(i)))
		}
		if name == logTable {
			writeNum(0)
		} else {
			writeNum(1)
			writeNum(uint64(t.NumRows()))
		}
	}
	return h.Sum64()
}

// encodeWarmState builds the snapshot record payload.
func encodeWarmState(ws *WarmState, fp uint64) []byte {
	buf := binary.AppendUvarint(nil, ws.SchemaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, fp)
	buf = appendString(buf, ws.LogTable)
	buf = binary.AppendUvarint(buf, uint64(ws.LogRows))
	buf = binary.AppendUvarint(buf, uint64(len(ws.Masks)))
	var bb bytes.Buffer
	for _, m := range ws.Masks {
		buf = appendString(buf, m.Template)
		buf = binary.AppendUvarint(buf, uint64(m.Rows))
		buf = binary.AppendUvarint(buf, uint64(m.HistRows))
		bb.Reset()
		m.Bits.WriteTo(&bb) // writes to bytes.Buffer cannot fail
		buf = append(buf, bb.Bytes()...)
	}
	return buf
}

// decodeWarmState parses a snapshot record payload.
func decodeWarmState(payload []byte) (*WarmState, uint64, error) {
	r := bytes.NewReader(payload)
	readNum := func() (uint64, error) { return binary.ReadUvarint(r) }
	readStr := func() (string, error) {
		n, err := readNum()
		if err != nil || n > uint64(r.Len()) {
			return "", errors.New("malformed string")
		}
		b := make([]byte, n)
		r.Read(b) // cannot fail: n <= r.Len()
		return string(b), nil
	}

	ws := &WarmState{}
	sv, err := readNum()
	if err != nil {
		return nil, 0, errors.New("malformed schema version")
	}
	ws.SchemaVersion = sv
	var fpb [8]byte
	if _, err := io.ReadFull(r, fpb[:]); err != nil {
		return nil, 0, errors.New("malformed fingerprint")
	}
	fp := binary.LittleEndian.Uint64(fpb[:])
	if ws.LogTable, err = readStr(); err != nil {
		return nil, 0, err
	}
	logRows, err := readNum()
	if err != nil || logRows > maxSnapshotCount {
		return nil, 0, errors.New("malformed log watermark")
	}
	ws.LogRows = int(logRows)

	nmasks, err := readNum()
	if err != nil || nmasks > maxSnapshotCount {
		return nil, 0, errors.New("malformed mask count")
	}
	for i := uint64(0); i < nmasks; i++ {
		var m MaskState
		if m.Template, err = readStr(); err != nil {
			return nil, 0, err
		}
		rows, err := readNum()
		if err != nil || rows > maxSnapshotCount {
			return nil, 0, errors.New("malformed mask watermark")
		}
		hist, err := readNum()
		if err != nil || hist > maxSnapshotCount {
			return nil, 0, errors.New("malformed mask watermark")
		}
		m.Rows, m.HistRows = int(rows), int(hist)
		m.Bits = &bitset.Bits{}
		if _, err := m.Bits.ReadFrom(r); err != nil {
			return nil, 0, err
		}
		ws.Masks = append(ws.Masks, m)
	}
	if r.Len() != 0 {
		return nil, 0, errors.New("trailing bytes")
	}
	return ws, fp, nil
}

// maxSnapshotCount bounds every count a snapshot declares, so corruption
// that survives the checksum (or a handcrafted file) cannot force an
// absurd allocation.
const maxSnapshotCount = 1 << 30

// appendString encodes a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Package store is the persistence subsystem behind relation.Database: an
// append-only binary log-segment format plus a durable warm-start snapshot,
// so a restarted process reopens its tables from disk instead of reparsing
// CSVs and resumes auditing with its cached masks instead of a cold
// rebuild.
//
// A store directory holds one segment file per table (<name>.seg), a small
// JSON manifest (schema and row-count watermarks), and optionally one
// warm-start snapshot (see WarmState). Segments are sequences of
// length-prefixed, checksummed records over a typed value encoding that
// reuses the relation.Value kinds; they are written once by Create and
// then only ever appended to (AppendRows), which is exactly the shape an
// access log grows in. Recovery follows the write-ahead-log convention: a
// torn tail — a record cut mid-write by a crash — is detected by its
// length or checksum and truncated away on Open, so the store always
// reopens to a valid prefix of what was written (the same contract the
// CLI's follow mode applies to torn CSV rows).
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"repro/internal/fault"
	"repro/internal/relation"
)

// segMagic opens every segment file; a file without it is not a segment.
const segMagic = "EBSEG01\n"

// Sanity bounds on declared sizes, so a corrupt length prefix cannot force
// an absurd allocation: records are written in batches of segBatchRows
// rows, far below these limits.
const (
	maxRecordLen = 1 << 28 // 256 MB per record
	maxColumns   = 1 << 16
)

// errZeroWidthRows refuses rows of a table without columns: such a row
// encodes to no bytes, so a record could not bound its declared row count
// by its length (see decodeRowBatch).
var errZeroWidthRows = errors.New("store: rows of a table with no columns cannot be stored")

// segBatchRows is the row count Create packs into one record. Batching
// amortizes the 8-byte frame and one checksum across many rows while
// keeping each record small enough to decode incrementally.
const segBatchRows = 4096

// crcTable is the Castagnoli polynomial, the usual storage-checksum choice
// (hardware-accelerated on the platforms that matter).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames payload — length prefix, checksum, bytes — onto buf.
func appendRecord(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// appendValue encodes one typed value: a kind byte, then the payload —
// nothing for null, a zigzag varint for ints and dates, a length-prefixed
// byte string for strings.
func appendValue(buf []byte, v relation.Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case relation.KindNull:
	case relation.KindInt, relation.KindDate:
		buf = binary.AppendVarint(buf, v.Int)
	case relation.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		buf = append(buf, v.Str...)
	default:
		panic(fmt.Sprintf("store: unencodable value kind %d", v.Kind))
	}
	return buf
}

// minimalVarint reports whether the w-byte varint at b is the encoding
// binary.AppendUvarint / AppendVarint would write: only a one-byte varint
// may end in a zero byte. The writers only emit minimal varints, so
// rejecting the rest makes decoding a bijection: an accepted record
// re-encodes to its own bytes.
func minimalVarint(b []byte, w int) bool { return w == 1 || b[w-1] != 0 }

// segmentHeader is the decoded first record of a segment: the column names
// and their kinds, as relation.KindName names them. The kinds are
// declarations: the table a segment decodes into has them, and a stored
// value — which carries its own kind byte — must be null or of its column's
// kind (see decodeRowBatch). A column that held only nulls when the
// segment was written is declared a string column.
type segmentHeader struct {
	columns []string
	kinds   []string
}

// encodeHeader builds the header record payload.
func encodeHeader(h segmentHeader) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(h.columns)))
	for i, c := range h.columns {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
		buf = binary.AppendUvarint(buf, uint64(len(h.kinds[i])))
		buf = append(buf, h.kinds[i]...)
	}
	return buf
}

// decodeHeader parses a header record payload.
func decodeHeader(payload []byte) (segmentHeader, error) {
	var h segmentHeader
	ncols, w := binary.Uvarint(payload)
	if w <= 0 || ncols > maxColumns {
		return h, errors.New("store: malformed segment header")
	}
	pos := w
	readStr := func() (string, error) {
		sz, w := binary.Uvarint(payload[pos:])
		if w <= 0 || sz > uint64(len(payload)-pos-w) {
			return "", errors.New("store: malformed segment header string")
		}
		pos += w
		s := string(payload[pos : pos+int(sz)])
		pos += int(sz)
		return s, nil
	}
	for i := uint64(0); i < ncols; i++ {
		col, err := readStr()
		if err != nil {
			return h, err
		}
		kind, err := readStr()
		if err != nil {
			return h, err
		}
		if slices.Contains(h.columns, col) {
			return h, fmt.Errorf("store: segment header repeats column %q", col)
		}
		h.columns = append(h.columns, col)
		h.kinds = append(h.kinds, kind)
	}
	return h, nil
}

// kindNames returns the kind names of t's columns, as Dump writes them in
// its header.
func kindNames(t *relation.Table) []string {
	kinds := make([]string, len(t.Columns()))
	for i := range kinds {
		kinds[i] = relation.KindName(t.ColumnKind(i))
	}
	return kinds
}

// writeSegment writes a complete segment file for t at path: magic, header
// record, then the rows in batch records.
func writeSegment(path string, t *relation.Table) error {
	if len(t.Columns()) == 0 && t.NumRows() > 0 {
		return errZeroWidthRows
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	total := int64(len(segMagic))
	if _, err := bw.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	hdr := segmentHeader{columns: t.Columns(), kinds: kindNames(t)}
	rec := appendRecord(nil, encodeHeader(hdr))
	total += int64(len(rec))
	if _, err := bw.Write(rec); err != nil {
		f.Close()
		return err
	}
	for lo := 0; lo < t.NumRows(); lo += segBatchRows {
		hi := min(lo+segBatchRows, t.NumRows())
		rec = appendRecord(rec[:0], encodeRowBatch(t, lo, hi))
		total += int64(len(rec))
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	bytesWritten.Add(total)
	return f.Close()
}

// encodeRowBatch builds one data-record payload holding t's rows [lo, hi).
func encodeRowBatch(t *relation.Table, lo, hi int) []byte {
	buf := binary.AppendUvarint(nil, uint64(hi-lo))
	for r := lo; r < hi; r++ {
		for c := range t.Columns() {
			buf = appendValue(buf, t.Cell(r, c))
		}
	}
	return buf
}

// encodeRows is encodeRowBatch over a raw row slice (the append path).
func encodeRows(rows [][]relation.Value) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// errKindMismatch is a checksum-valid value whose kind is not its column's.
// It is not a torn tail — a writer that stored such a value finished the
// record — so Open reports it and leaves the segment as it is.
var errKindMismatch = errors.New("store: value kind does not match its column")

// decodeRowBatch decodes one data record's rows straight into t's typed
// columns and commits them. Every row must have exactly one value per
// column of t and the rows must consume the payload completely. A value
// must be null or of its column's kind; the first non-null value of a
// column t has not declared declares it. On error nothing is committed and
// t is left as it was (though a kind the record declared stays declared);
// a kind mismatch wraps errKindMismatch. String cells are copied out of the
// payload, so the caller may reuse its buffer.
func decodeRowBatch(payload []byte, t *relation.Table) error {
	ncols := len(t.Columns())
	nrows, w := binary.Uvarint(payload)
	if w <= 0 || !minimalVarint(payload, w) {
		return errors.New("store: malformed record row count")
	}
	pos := w
	// Every value costs at least its kind byte, so a declared count the
	// rest of the payload cannot hold is corrupt: reject it before it sizes
	// an allocation. A zero-width row has no bytes to check the count
	// against, which is why the writers refuse zero-column rows.
	if rem := uint64(len(payload) - pos); nrows > 0 && (ncols == 0 || nrows > rem/uint64(ncols)) {
		return errors.New("store: record row count exceeds payload")
	}
	t.Grow(int(nrows))
	if err := decodeCells(payload, pos, int(nrows), t); err != nil {
		t.DiscardRows()
		return err
	}
	t.CommitRows(int(nrows))
	return nil
}

// decodeCells stages the nrows rows of cells at payload[pos:] on t and
// checks that they end the payload.
func decodeCells(payload []byte, pos, nrows int, t *relation.Table) error {
	ncols := len(t.Columns())
	for range nrows {
		for c := range ncols {
			if pos >= len(payload) {
				return errors.New("store: value truncated")
			}
			kind := relation.Kind(payload[pos])
			pos++
			if kind == relation.KindNull {
				t.AppendNull(c)
				continue
			}
			switch ck := t.ColumnKind(c); {
			case kind != relation.KindInt && kind != relation.KindString && kind != relation.KindDate:
				return fmt.Errorf("store: unknown value kind %d", kind)
			case ck == relation.KindNull:
				t.Declare(c, kind)
			case ck != kind:
				return fmt.Errorf("%w: column %q holds %s values, the record a %s value",
					errKindMismatch, t.Columns()[c], relation.KindName(ck), relation.KindName(kind))
			}
			if kind == relation.KindString {
				sz, w := binary.Uvarint(payload[pos:])
				if w <= 0 || !minimalVarint(payload[pos:], w) {
					return errors.New("store: malformed string length")
				}
				pos += w
				if sz > uint64(len(payload)-pos) {
					return errors.New("store: string length exceeds record")
				}
				t.AppendString(c, string(payload[pos:pos+int(sz)]))
				pos += int(sz)
				continue
			}
			n, w := binary.Varint(payload[pos:])
			if w <= 0 || !minimalVarint(payload[pos:], w) {
				return errors.New("store: malformed varint")
			}
			t.AppendInt(c, n)
			pos += w
		}
	}
	if pos != len(payload) {
		return errors.New("store: record has trailing bytes")
	}
	return nil
}

// scanResult is what readSegment recovered: the table (nil if even the
// header was unreadable), and the byte offset of the first invalid record —
// the torn-tail truncation point (equal to the file size when the segment
// is fully valid).
type scanResult struct {
	table    *relation.Table
	validEnd int64
	fileSize int64
}

// segScanner is the pull-based core of segment reading: it decodes one
// checksummed record at a time onto a table, reusing a single payload
// buffer across records, so reading a segment holds the table plus one
// payload buffer however large the segment is. readSegment drains it into
// a table.
type segScanner struct {
	f     *os.File
	br    *bufio.Reader
	buf   []byte
	hdr   segmentHeader
	kinds []relation.Kind // hdr.kinds parsed

	// off tracks the bytes consumed so far; validEnd is the offset just past
	// the last record that decoded cleanly — the torn-tail truncation point.
	off      int64
	validEnd int64
	fileSize int64
}

// openSegScanner opens the segment at path, verifies the magic, and decodes
// the header record. The header must be intact: without a schema nothing
// after it can be interpreted, and Create writes it in the same burst as
// the magic, so a torn header means the segment never finished being born.
// On error the file is closed and sc.fileSize still reports the size seen.
func openSegScanner(path string) (sc *segScanner, err error) {
	// Chaos seam: injectable open/read failure, standing in for a segment
	// on an unreachable volume.
	if err := fault.Inject("store.segment.read"); err != nil {
		return nil, fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading segment %s: %w", path, err)
	}
	sc = &segScanner{f: f}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return sc, err
	}
	sc.fileSize = st.Size()

	// A segment smaller than the 1 MiB cap gets a reader that fits it, so a
	// small table does not pay to zero a buffer it never fills.
	sc.br = bufio.NewReaderSize(f, int(min(sc.fileSize+16, 1<<20)))
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(sc.br, magic); err != nil || string(magic) != segMagic {
		return sc, fmt.Errorf("store: %s is not a segment file", path)
	}
	sc.off = int64(len(segMagic))

	hdrPayload, n, ok := sc.readRecord()
	sc.off += n
	if !ok {
		return sc, fmt.Errorf("store: %s: segment header corrupt", path)
	}
	hdr, err := decodeHeader(hdrPayload)
	if err != nil {
		return sc, fmt.Errorf("store: %s: %w", path, err)
	}
	sc.hdr = hdr
	sc.kinds = make([]relation.Kind, len(hdr.kinds))
	for i, name := range hdr.kinds {
		if sc.kinds[i], ok = relation.ParseKind(name); !ok {
			return sc, fmt.Errorf("store: %s: column %q has unknown kind %q", path, hdr.columns[i], name)
		}
	}
	sc.validEnd = sc.off
	return sc, nil
}

// close releases the segment file and charges the checksum-valid bytes the
// scan consumed to store.bytes_read (every scanner funnels through here
// exactly once).
func (sc *segScanner) close() {
	bytesRead.Add(sc.validEnd)
	sc.f.Close()
}

// newTable returns an empty table named name with the segment's columns
// and kinds.
func (sc *segScanner) newTable(name string) *relation.Table {
	t := relation.NewTable(name, sc.hdr.columns...)
	for i, k := range sc.kinds {
		t.Declare(i, k)
	}
	return t
}

// next decodes the next data record onto t (see decodeRowBatch), reporting
// ok = false at the first torn, truncated, or corrupt record, as a WAL
// reader stops at the first invalid entry: a checksum-valid record that
// fails to decode is corruption the frame cannot explain and is treated
// the same as a torn tail. The one exception is a value whose kind is not
// its column's, which a writer can have stored whole: next returns it as
// an error, for the caller to refuse the segment rather than truncate it.
func (sc *segScanner) next(t *relation.Table) (ok bool, err error) {
	payload, n, ok := sc.readRecord()
	if !ok {
		return false, nil
	}
	if err := decodeRowBatch(payload, t); err != nil {
		if errors.Is(err, errKindMismatch) {
			return false, fmt.Errorf("store: segment %s, record at byte %d: %w", sc.f.Name(), sc.off, err)
		}
		return false, nil
	}
	sc.off += n
	sc.validEnd = sc.off
	return true, nil
}

// readRecord reads one framed record into the scanner's reused buffer,
// verifying length sanity and checksum; ok is false when the record is
// torn, truncated, or corrupt (the recovery signal — never an error,
// because a torn tail is an expected crash artifact). The returned payload
// aliases the buffer and is only valid until the next call.
func (sc *segScanner) readRecord() (payload []byte, consumed int64, ok bool) {
	remaining := sc.fileSize - sc.off
	var hdr [8]byte
	if remaining < int64(len(hdr)) {
		return nil, 0, false
	}
	if _, err := io.ReadFull(sc.br, hdr[:]); err != nil {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(hdr[0:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if size > maxRecordLen || int64(size) > remaining-int64(len(hdr)) {
		return nil, 0, false
	}
	if int(size) > cap(sc.buf) {
		sc.buf = make([]byte, size)
	}
	payload = sc.buf[:size]
	if _, err := io.ReadFull(sc.br, payload); err != nil {
		return nil, 0, false
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, false
	}
	return payload, int64(len(hdr)) + int64(size), true
}

// readSegment streams the segment at path into a fresh table named name,
// stopping — without error — at the first torn or corrupt data record.
// Each record is verified against its checksum before a single value is
// decoded, so a torn tail can never contribute rows, and decoded straight
// into the table's typed columns; the file is never materialized whole,
// and peak transient memory is the scanner's reused payload buffer.
// rowsHint, the manifest's row count, pre-sizes the columns. It is only a
// hint — a torn tail or a stale manifest makes it wrong — so it is capped
// at the rows the file could hold. A record holding a value of the wrong
// kind for its column is an error (see segScanner.next).
func readSegment(path, name string, rowsHint int) (scanResult, error) {
	sc, err := openSegScanner(path)
	if err != nil {
		if sc == nil {
			return scanResult{}, err
		}
		sc.close()
		return scanResult{fileSize: sc.fileSize}, err
	}
	defer sc.close()
	t := sc.newTable(name)
	if ncols := int64(len(sc.kinds)); ncols > 0 && rowsHint > 0 {
		t.Grow(int(min(int64(rowsHint), sc.fileSize/ncols)))
	}
	for {
		ok, err := sc.next(t)
		if err != nil {
			return scanResult{fileSize: sc.fileSize}, err
		}
		if !ok {
			return scanResult{table: t, validEnd: sc.validEnd, fileSize: sc.fileSize}, nil
		}
	}
}

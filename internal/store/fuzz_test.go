package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/relation"
)

// FuzzSegmentDecode throws arbitrary bytes at the segment reader. The
// invariants under fuzz: the reader never panics, and whenever it accepts a
// file, recovery is idempotent — truncating to the reported valid end and
// re-reading yields the same rows and a fully valid file. Seeds cover a
// well-formed segment, every short prefix shape, and a corrupted byte.
func FuzzSegmentDecode(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.seg")
	t := relation.NewTable("T", "A", "B")
	t.Append(relation.Int(1), relation.String("x"))
	t.Append(relation.Null(), relation.String(`\N`))
	t.Append(relation.Int(-7), relation.Null())
	if err := writeSegment(seedPath, t); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:len(segMagic)+5])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := readSegment(path, "T", 0)
		if err != nil {
			return
		}
		if res.validEnd > res.fileSize {
			t.Fatalf("validEnd %d past file size %d", res.validEnd, res.fileSize)
		}
		if err := os.Truncate(path, res.validEnd); err != nil {
			t.Fatal(err)
		}
		again, err := readSegment(path, "T", 0)
		if err != nil {
			t.Fatalf("re-read after truncate to valid end: %v", err)
		}
		if again.validEnd != res.validEnd || again.fileSize != res.validEnd {
			t.Fatalf("recovery not idempotent: validEnd %d→%d, size %d",
				res.validEnd, again.validEnd, again.fileSize)
		}
		if again.table.NumRows() != res.table.NumRows() {
			t.Fatalf("rows %d→%d after recovery", res.table.NumRows(), again.table.NumRows())
		}
		for r := 0; r < res.table.NumRows(); r++ {
			for c := range res.table.Columns() {
				if again.table.Row(r)[c] != res.table.Row(r)[c] {
					t.Fatalf("row %d col %d differs after recovery", r, c)
				}
			}
		}
	})
}

// FuzzDecodeRowBatch drives the batch decoder directly: FuzzSegmentDecode
// rarely gets a payload past the record checksum. The decoder writes into
// a table of ncols columns no header has declared, so each column takes
// the kind of its first non-null value and must keep it. Under fuzz the
// decoder never panics, never allocates more than a bounded multiple of
// the payload — the declared row count is checked against the payload
// before it sizes the columns — and a batch it accepts fills every column
// to the row count and re-encodes to exactly its bytes. Seeds: a batch
// whose third column mixes a date and an int (rejected, as a column has
// one kind), an overstated row count, zero columns, a huge column count, a
// value truncated mid-varint, an overlong zero row count, and a
// kind-consistent batch with nulls that round-trips.
func FuzzDecodeRowBatch(f *testing.F) {
	rows := [][]relation.Value{
		{relation.Int(1), relation.String("x"), relation.Date(3)},
		{relation.Null(), relation.String(`\N`), relation.Int(-300)},
	}
	valid := encodeRows(rows)
	f.Add(valid, 3)
	overstated := append(binary.AppendUvarint(nil, 1<<40), valid[1:]...)
	f.Add(overstated, 3)
	f.Add(binary.AppendUvarint(nil, 5), 0)
	f.Add(valid, math.MaxInt)
	f.Add(valid[:len(valid)-1], 3) // -300 is a two-byte varint; cut after its first byte
	f.Add([]byte{0x80, 0x00}, 1)   // an overlong zero row count
	f.Add(encodeRows([][]relation.Value{
		{relation.Int(1), relation.String("x"), relation.Date(3), relation.Null()},
		{relation.Null(), relation.String(`\N`), relation.Date(-300), relation.Null()},
	}), 4)

	f.Fuzz(func(t *testing.T, payload []byte, ncols int) {
		if ncols < 0 || ncols > maxColumns {
			return // decodeHeader refuses such a header, so no record is decoded against it
		}
		got := relation.NewTable("T", columnNames(ncols)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeRowBatch(payload, got)
		runtime.ReadMemStats(&after)
		// An int or date cell takes 8 bytes, a string cell a 16-byte header,
		// and string bytes are at most the payload; each cell costs a payload
		// byte, and a column's array at most doubles past its cells. A decode
		// bounded by the payload stays under 64 bytes per payload byte, plus
		// slack for the runtime's own allocations.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(payload))+1<<16 {
			t.Fatalf("decoding %d payload bytes allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			if got.NumRows() != 0 {
				t.Fatalf("a rejected batch committed %d rows", got.NumRows())
			}
			return
		}
		if n := got.NumRows() * ncols; n > len(payload) {
			t.Fatalf("accepted %d rows of %d columns from %d bytes", got.NumRows(), ncols, len(payload))
		}
		if again := encodeRowBatch(got, 0, got.NumRows()); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded batch differs:\n got %x\nwant %x", again, payload)
		}
	})
}

// columnNames returns n distinct column names.
func columnNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return names
}

// FuzzSnapshotDecode throws arbitrary bytes at the warm-start snapshot
// parser, both as a whole file and framed as a checksummed payload (a
// mutated file almost never keeps its checksum, so the payload route is
// what reaches the decoder behind it). Under fuzz the parser never panics,
// allocates in proportion to its input — a declared count or mask length
// the bytes do not back fails before it sizes an allocation — and any input
// it accepts re-encodes (encodeWarmState plus the frame) and re-decodes to
// an equal WarmState and fingerprint. Seeds: the WARM.snap of a Tiny store
// (testdata/tiny_WARM.snap, written by `ebaudit -scale tiny -store DIR
// audit`), its payload, truncated and bit-flipped copies of both, and a
// payload whose mask overstates its length.
func FuzzSnapshotDecode(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join("testdata", "tiny_WARM.snap"))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := parseSnapshot(snap); err != nil {
		f.Fatalf("seed snapshot does not parse: %v", err)
	}
	payload := snap[len(snapMagic)+8:]
	// A mask that declares 2^30 bits and carries no words: decoding it must
	// fail without allocating for the declared length.
	overstated := encodeWarmState(&WarmState{LogTable: "Log",
		Masks: []MaskState{{Template: "t", Bits: bitset.New(0)}}}, 0)
	overstated = binary.AppendUvarint(overstated[:len(overstated)-1], 1<<30)
	f.Add(overstated)
	for _, seed := range [][]byte{snap, payload} {
		f.Add(seed)
		for _, n := range []int{len(seed) - 1, len(seed) / 2, len(snapMagic) + 8, len(snapMagic), 0} {
			f.Add(seed[:n])
		}
		for _, at := range []int{2, len(snapMagic) + 9, len(seed) / 2, len(seed) - 1} {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotRoundTrip(t, data)
		checkSnapshotRoundTrip(t, frameSnapshot(data))
	})
}

// checkSnapshotRoundTrip parses data as a snapshot file and, if it is
// accepted, checks that it survives re-encoding unchanged.
func checkSnapshotRoundTrip(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ws, fp, err := parseSnapshot(data)
	runtime.ReadMemStats(&after)
	// Mask words, strings and the per-mask records stay within 64 bytes
	// per input byte; the slack covers one bounded chunk of a mask whose
	// declared length the input does not back.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+2<<20 {
		t.Fatalf("parsing %d bytes allocated %d bytes", len(data), grew)
	}
	if err != nil {
		return
	}
	again, fp2, err := parseSnapshot(frameSnapshot(encodeWarmState(ws, fp)))
	if err != nil {
		t.Fatalf("re-encoded snapshot does not parse: %v", err)
	}
	if fp2 != fp || !reflect.DeepEqual(again, ws) {
		t.Fatalf("snapshot changed across re-encoding: fingerprint %x→%x\n got %+v\nwant %+v", fp, fp2, again, ws)
	}
}

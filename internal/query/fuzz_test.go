package query_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// fuzzBytes doles out fuzz input one byte at a time, yielding zero once the
// input is exhausted so every prefix of an input decodes deterministically.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

// fuzzDB builds a small random database from the byte stream: an access log
// plus two event tables A(P, D) and B(P, U) and a mapping bridge M(F, T),
// all over a tiny shared value domain so joins actually connect.
func fuzzDB(f *fuzzBytes) *relation.Database {
	const domain = 5
	val := func() relation.Value { return relation.Int(int64(f.next() % domain)) }

	db := relation.NewDatabase()
	log := relation.NewTable(pathmodel.LogTable,
		pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	for i, n := 0, int(f.next()%12); i < n; i++ {
		log.Append(relation.Int(int64(i)), relation.Int(int64(f.next()%7)), val(), val())
	}
	db.AddTable(log)

	a := relation.NewTable("A", "P", "D")
	for i, n := 0, int(f.next()%10); i < n; i++ {
		a.Append(val(), val())
	}
	db.AddTable(a)

	b := relation.NewTable("B", "P", "U")
	for i, n := 0, int(f.next()%10); i < n; i++ {
		b.Append(val(), val())
	}
	db.AddTable(b)

	m := relation.NewTable("M", "F", "T")
	for i, n := 0, int(f.next()%10); i < n; i++ {
		m.Append(val(), val())
	}
	db.AddTable(m)
	return db
}

// fuzzPath performs a byte-driven random walk over a small edge catalog.
// Invalid extensions are simply skipped (Append rejects them), so any byte
// stream yields either no path, an open path, or a closed one — all three
// are evaluated.
func fuzzPath(f *fuzzBytes) (pathmodel.Path, bool) {
	attr := func(t, c string) schemagraph.Attr { return schemagraph.Attr{Table: t, Column: c} }
	bridge := &schemagraph.Bridge{Table: "M", FromColumn: "F", ToColumn: "T"}

	starts := []schemagraph.Edge{
		{From: pathmodel.StartAttr(), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		{From: pathmodel.StartAttr(), To: attr("B", "P"), Kind: schemagraph.KeyFK},
		{From: pathmodel.StartAttr(), To: attr("B", "U"), Kind: schemagraph.KeyFK, Via: bridge},
	}
	extends := []schemagraph.Edge{
		{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK},
		{From: attr("A", "D"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: bridge},
		{From: attr("A", "D"), To: attr("B", "P"), Kind: schemagraph.KeyFK},
		{From: attr("A", "D"), To: attr("B", "U"), Kind: schemagraph.KeyFK, Via: bridge},
		{From: attr("B", "U"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK},
		{From: attr("B", "P"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK, Via: bridge},
		{From: attr("B", "U"), To: attr("A", "P"), Kind: schemagraph.KeyFK},
		{From: attr("B", "P"), To: attr("B", "P"), Kind: schemagraph.SelfJoin},
		{From: attr("B", "U"), To: attr("B", "U"), Kind: schemagraph.SelfJoin},
	}

	p, ok := pathmodel.Start(starts[int(f.next())%len(starts)])
	if !ok {
		return pathmodel.Path{}, false
	}
	for step := 0; step < 6 && !p.Closed(); step++ {
		e := extends[int(f.next())%len(extends)]
		if np, ok := p.Append(e); ok {
			p = np
		}
	}
	return p, true
}

// FuzzSupportAgreement cross-checks the three support implementations on
// random databases and random paths, in both cache states:
//
//   - db1 evaluates Support first (warming the hash indexes and DISTINCT
//     projections), then the indexed nested join, then the index-free scan;
//   - db2 holds identical data but evaluates in the opposite order, so
//     Support runs against caches populated (or not) differently.
//
// All five counts must agree, the full ExplainedRange (ConnectedRows) mask
// of a closed (open) path must equal the nested join's per-row verdicts
// (ScanRows), Support must equal its popcount, and a random [lo, hi)
// evaluated into a patterned mask must set exactly that range of the full
// mask and leave every other bit as it was. This is the index-on ==
// index-off oracle: SupportScan never touches the index caches at all. On
// closed paths the same random schemas also pin Instances to the blind
// reference search (see assertInstancesMatchReference).
func FuzzSupportAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 3, 4, 1, 2, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 1, 0})
	f.Add([]byte{11, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 9, 1, 2, 3, 4, 0, 1, 2, 3,
		9, 4, 3, 2, 1, 0, 4, 3, 2, 1, 9, 0, 0, 1, 1, 2, 2, 3, 3, 4, 2, 6, 3, 7, 1})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 8, 2, 2, 3, 3, 1, 1, 0, 0,
		8, 1, 4, 2, 3, 0, 2, 4, 1, 3, 8, 3, 3, 4, 4, 0, 0, 2, 2, 1, 0, 0, 1, 5, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		r1 := &fuzzBytes{data: data}
		db1 := fuzzDB(r1)
		p, ok := fuzzPath(r1)
		if !ok {
			return
		}
		// Identical second database (same byte prefix), cold caches.
		r2 := &fuzzBytes{data: data}
		db2 := fuzzDB(r2)

		ev1 := query.NewEvaluator(db1)
		ev2 := query.NewEvaluator(db2)

		s1 := ev1.Support(p)      // warms indexes + DISTINCT projections
		n1 := ev1.SupportNaive(p) // indexed nested join, warm caches
		x1 := ev1.SupportScan(p)  // linear scans, ignores caches

		x2 := ev2.SupportScan(p)  // cold database, index-free first
		n2 := ev2.SupportNaive(p) // builds entry/bridge indexes
		s2 := ev2.Support(p)      // builds DISTINCT projections last

		if s1 != n1 || s1 != x1 || s1 != x2 || s1 != n2 || s1 != s2 {
			t.Fatalf("support disagreement on path %q: Support=%d/%d SupportNaive=%d/%d SupportScan=%d/%d",
				p.String(), s1, s2, n1, n2, x1, x2)
		}

		mask := engineRows(ev1, p)
		if ref := ev2.ScanRows(p); !reflect.DeepEqual(mask, ref) {
			t.Fatalf("path %q: mask %v, nested join %v", p.String(), mask, ref)
		}
		if pop := popcount(mask); pop != s1 {
			t.Fatalf("path %q: Support=%d but mask popcount=%d", p.String(), s1, pop)
		}
		// The in-place law on a random [lo, hi) of a mask that runs past
		// the log and is patterned outside the range.
		n := len(mask)
		lo := int(r1.next()) % (n + 1)
		hi := lo + int(r1.next())%(n-lo+1)
		dst := patterned(rand.New(rand.NewSource(int64(len(data)))), n+int(r1.next()), lo, hi)
		before := dst.Clone()
		if pp := ev1.Prepare(p); p.Closed() {
			pp.ExplainedRange(lo, hi, dst)
		} else {
			pp.ConnectedRange(lo, hi, dst)
		}
		checkInPlace(t, fmt.Sprintf("path %q, range [%d, %d)", p.String(), lo, hi), dst, before, lo, mask[lo:hi])
		if p.Closed() {
			// The compiled instance enumerator against the blind search, and
			// against the mask: a row is explained iff it has an instance.
			assertInstancesMatchReference(t, ev1, p.String(), p)
			for row, explained := range mask {
				if got := len(ev2.Instances(p, row, 1)) > 0; got != explained {
					t.Fatalf("path %q row %d: mask says %v, Instances says %v", p.String(), row, explained, got)
				}
			}
		}
	})
}

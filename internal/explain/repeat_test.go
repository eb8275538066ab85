package explain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

// repeatCuts partitions [0, n) into ranges of three shapes mixed at random:
// single rows, runs ending on a 64-row boundary (the batch engine's shard
// alignment), and arbitrary spans.
func repeatCuts(rng *rand.Rand, n int) []int {
	cuts := []int{0}
	for lo := 0; lo < n; {
		var hi int
		switch rng.Intn(3) {
		case 0:
			hi = lo + 1
		case 1:
			hi = (lo/64 + 1 + rng.Intn(4)) * 64
		default:
			hi = lo + 1 + rng.Intn(n/4+1)
		}
		lo = min(hi, n)
		cuts = append(cuts, lo)
	}
	return cuts
}

// shuffledTiedLog copies log with its rows in random order and every Date
// coarsened to a three-day bucket, so many (user, patient) pairs hold
// several accesses on one Date and only Lid orders them.
func shuffledTiedLog(rng *rand.Rand, log *relation.Table) *relation.Table {
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	out := accesslog.NewLogTable(pathmodel.LogTable)
	for _, r := range rng.Perm(log.NumRows()) {
		row := append([]relation.Value(nil), log.Row(r)...)
		row[di] = relation.Date(int(row[di].AsInt()) / 3)
		out.Append(row...)
	}
	return out
}

// lidDecided counts the rows of a self-audited log whose repeat-access
// verdict rests on Lid: an access by the same (user, patient) pair exists on
// the same Date, and none on an earlier one.
func lidDecided(log *relation.Table) int {
	type pair struct{ u, p relation.Value }
	type pairDay struct {
		pair
		day int64
	}
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	firstDay := make(map[pair]int64)
	onDay := make(map[pairDay]int)
	for r := 0; r < log.NumRows(); r++ {
		row := log.Row(r)
		k, d := pair{row[ui], row[pi]}, row[di].AsInt()
		if f, ok := firstDay[k]; !ok || d < f {
			firstDay[k] = d
		}
		onDay[pairDay{k, d}]++
	}
	n := 0
	for k, d := range firstDay {
		n += onDay[pairDay{k, d}] - 1
	}
	return n
}

// historicalSplit audits the accesses of db's Log on or after its middle
// day against a history holding only the earlier ones, through the
// auditor's WithAuditedLog option: no audited row is present in the history.
func historicalSplit(db *relation.Database) *query.Evaluator {
	log := db.MustTable(pathmodel.LogTable)
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	first, last := log.Row(0)[di].AsInt(), log.Row(0)[di].AsInt()
	for r := 0; r < log.NumRows(); r++ {
		d := log.Row(r)[di].AsInt()
		first, last = min(first, d), max(last, d)
	}
	mid := int(first+last) / 2
	history := accesslog.FilterDays(log, int(first), mid-1)
	audited := accesslog.FilterDays(log, mid, int(last))
	return core.NewAuditor(accesslog.WithLog(db, history), nil, core.WithAuditedLog(audited)).Evaluator()
}

// TestRepeatAccessMatchesReference pins the per-pair first-access table to
// the map scan it replaced: over random range partitions of three Tiny seeds, the
// stitched EvaluateRange masks equal the reference's, on the database Log,
// on a shuffled history with same-Date ties, and on a historical audit.
// Render must produce text exactly for the rows the mask sets.
func TestRepeatAccessMatchesReference(t *testing.T) {
	tpl := explain.RepeatAccess()
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		rng := rand.New(rand.NewSource(seed * 131))
		tied := shuffledTiedLog(rng, ds.Log())
		if lidDecided(tied) == 0 {
			t.Fatalf("seed %d: shuffled history has no same-Date ties", seed)
		}
		histories := []struct {
			name string
			ev   *query.Evaluator
		}{
			{"log", query.NewEvaluator(ds.DB)},
			{"shuffled-ties", query.NewEvaluator(accesslog.WithLog(ds.DB, tied))},
			{"historical", historicalSplit(ds.DB)},
		}
		for _, h := range histories {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, h.name), func(t *testing.T) {
				ev := h.ev
				n := ev.Log().NumRows()
				want := explain.RepeatAccessReference(ev, 0, n)
				explained := 0
				for _, b := range want {
					if b {
						explained++
					}
				}
				if explained == 0 || explained == n {
					t.Fatalf("reference explains %d of %d rows: the fixture exercises nothing", explained, n)
				}
				for k := 0; k < 3; k++ {
					cuts := repeatCuts(rng, n)
					for i := 0; i+1 < len(cuts); i++ {
						lo, hi := cuts[i], cuts[i+1]
						got := rangeBools(tpl, ev, lo, hi)
						for j, b := range got {
							if b != want[lo+j] {
								t.Fatalf("range [%d,%d): row %d = %v, reference %v", lo, hi, lo+j, b, want[lo+j])
							}
						}
					}
				}
				for r := 0; r < n; r++ {
					if texts := tpl.Render(ev, r, 1, explain.NullNamer{}); (texts != nil) != want[r] {
						t.Fatalf("row %d: Render = %v, mask bit %v", r, texts, want[r])
					}
				}
			})
		}
	}
}

// TestRepeatAccessRangeAllocs pins "no per-call history structure": once
// the log's pair column is interned, classifying a 64-row range into the
// caller's mask allocates nothing, let alone anything that grows with the
// history.
func TestRepeatAccessRangeAllocs(t *testing.T) {
	ev := query.NewEvaluator(ehr.Generate(ehr.Tiny()).DB)
	tpl := explain.RepeatAccess()
	dst := bitset.New(128)
	tpl.EvaluateRange(ev, 0, 64, dst) // intern the pair column
	if allocs := testing.AllocsPerRun(50, func() { tpl.EvaluateRange(ev, 64, 128, dst) }); allocs > 0 {
		t.Errorf("64-row EvaluateRange allocates %.0f objects, want 0", allocs)
	}
}

// TestRepeatAccessUnderAppends is the repeat-access differential under
// appends: one evaluator follows a log grown by seeded batches, and after
// each batch EvaluateRange over the whole log, the appended range included,
// equals RepeatAccessReference. The batches come in (Date, Lid) order or
// out of it, and each may add a copy of an audited row (a duplicate
// (Date, Lid)) and two accesses by a pair first seen in the batch.
func TestRepeatAccessUnderAppends(t *testing.T) {
	tpl := explain.RepeatAccess()
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		full := ehr.Generate(cfg).Log()
		n := full.NumRows()
		ui, _ := full.ColumnIndex(pathmodel.LogUserColumn)
		li, _ := full.ColumnIndex(pathmodel.LogIDColumn)
		for _, order := range []string{"chronological", "shuffled"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, order), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				rows := make([]int, n)
				for r := range rows {
					rows[r] = r
				}
				base := n / 2
				if order == "shuffled" {
					rng.Shuffle(n-base, func(i, j int) { rows[base+i], rows[base+j] = rows[base+j], rows[base+i] })
				}
				log := accesslog.NewLogTable(pathmodel.LogTable)
				for _, r := range rows[:base] {
					log.Append(full.Row(r)...)
				}
				ev := query.NewEvaluator(accesslog.WithLog(relation.NewDatabase(), log))
				check := func(stage string) {
					t.Helper()
					want := explain.RepeatAccessReference(ev, 0, log.NumRows())
					for r, b := range rangeBools(tpl, ev, 0, log.NumRows()) {
						if b != want[r] {
							t.Fatalf("%s: row %d = %v, reference %v", stage, r, b, want[r])
						}
					}
				}
				check("base")
				dups, fresh := 0, 0
				for lo, batch := base, 0; lo < n; batch++ {
					hi := min(n, lo+1+rng.Intn(97))
					for _, r := range rows[lo:hi] {
						log.Append(full.Row(r)...)
					}
					if rng.Intn(2) == 0 {
						log.Append(log.Row(rng.Intn(log.NumRows()))...)
						dups++
					}
					if rng.Intn(2) == 0 {
						row := log.Row(rng.Intn(log.NumRows()))
						row[ui] = relation.Int(1<<40 + int64(batch))
						log.Append(row...)
						row[li] = relation.Int(row[li].AsInt() + 1)
						log.Append(row...)
						fresh++
					}
					check(fmt.Sprintf("batch %d (rows %d..%d)", batch, lo, hi))
					lo = hi
				}
				if dups == 0 || fresh == 0 {
					t.Fatalf("%d duplicate rows and %d fresh pairs appended: the fixture exercises too little", dups, fresh)
				}
			})
		}
	}
}

// TestRepeatAccessGrowingHistory covers a history that is not the audited
// log (WithAuditedLog): the history (the log's first half) and the audited
// log (its second half) grow in turns, so one call sees the history grown
// under an unchanged audited pair count and the next new audited pairs
// under an unchanged history. Each call's EvaluateRange, made twice (the
// second is served the cached table), equals RepeatAccessReference.
func TestRepeatAccessGrowingHistory(t *testing.T) {
	tpl := explain.RepeatAccess()
	ds := ehr.Generate(ehr.Tiny())
	full := ds.Log()
	n := full.NumRows()
	history := accesslog.NewLogTable(pathmodel.LogTable)
	audited := accesslog.NewLogTable(pathmodel.LogTable)
	ev := core.NewAuditor(accesslog.WithLog(ds.DB, history), nil, core.WithAuditedLog(audited)).Evaluator()
	rng := rand.New(rand.NewSource(7))
	next := [2]int{0, n / 2} // the next row each table takes
	end := [2]int{n / 2, n}
	for step := 0; next[0] < end[0] || next[1] < end[1]; step++ {
		side := step % 2
		tb := []*relation.Table{history, audited}[side]
		hi := min(end[side], next[side]+1+rng.Intn(300))
		for r := next[side]; r < hi; r++ {
			tb.Append(full.Row(r)...)
		}
		next[side] = hi
		for k := 0; k < 2; k++ {
			want := explain.RepeatAccessReference(ev, 0, audited.NumRows())
			for r, b := range rangeBools(tpl, ev, 0, audited.NumRows()) {
				if b != want[r] {
					t.Fatalf("step %d: audited row %d = %v, reference %v", step, r, b, want[r])
				}
			}
		}
	}
	want := explain.RepeatAccessReference(ev, 0, audited.NumRows())
	explained := 0
	for _, b := range want {
		if b {
			explained++
		}
	}
	if explained == 0 || explained == len(want) {
		t.Fatalf("%d of %d audited rows explained: the fixture exercises nothing", explained, len(want))
	}
}

package explain_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// walkedRepeat is repeat access's decorated path with its decoration written
// twice: the same answers, but off the one shape the engine lowers onto its
// per-pair first-access table, so the engine walks it row by row.
func walkedRepeat() pathmodel.DecoratedPath {
	rt := explain.RepeatAccess()
	d := rt.Decorations[0]
	return pathmodel.DecoratedPath{Base: rt.Path, Decorations: []pathmodel.Decoration{d, d}}
}

// reversedLids copies log with its Lids reversed, rows and Dates kept: a
// later access of a Date has a smaller Lid.
func reversedLids(log *relation.Table) *relation.Table {
	li, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	lo, hi := log.Int(0, li), log.Int(0, li)
	for r := range log.NumRows() {
		lo, hi = min(lo, log.Int(r, li)), max(hi, log.Int(r, li))
	}
	out := accesslog.NewLogTable(pathmodel.LogTable)
	for r := range log.NumRows() {
		row := log.Row(r)
		row[li] = relation.Int(lo + hi - row[li].AsInt())
		out.Append(row...)
	}
	return out
}

// selectLogRows copies rows of log, in the given order, into a new Log table.
func selectLogRows(log *relation.Table, rows []int) *relation.Table {
	out := accesslog.NewLogTable(pathmodel.LogTable)
	for _, r := range rows {
		out.Append(log.Row(r)...)
	}
	return out
}

// joinShard is the second shard of a two-way Join cut at row c: its audited
// rows are the log's rows [c, n), and its history is the two shards'
// concatenation, a table other than the audited one.
func joinShard(t *testing.T, db *relation.Database, c int) *query.Evaluator {
	t.Helper()
	log := db.MustTable(pathmodel.LogTable)
	var first, second []int
	for r := range log.NumRows() {
		if r < c {
			first = append(first, r)
		} else {
			second = append(second, r)
		}
	}
	a, b := selectLogRows(log, first), selectLogRows(log, second)
	merged, err := relation.Concat(pathmodel.LogTable, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewAuditor(accesslog.WithLog(db, merged), nil, core.WithAuditedLog(b)).Evaluator()
}

// namedLog is one variant of a log under test; lidOrder reports that its
// Lids alone order its accesses as (Date, Lid) does.
type namedLog struct {
	name     string
	log      *relation.Table
	lidOrder bool
}

// orderLogs returns the variants of a Tiny seed's log whose Lids do not
// follow row order: its Lids reversed, and shuffledTiedLog's rows in random
// order over three-day Dates, whose Lids still follow (Date, Lid) order.
func orderLogs(t *testing.T, rng *rand.Rand, log *relation.Table) []namedLog {
	t.Helper()
	tied := shuffledTiedLog(rng, log)
	if lidDecided(tied) == 0 {
		t.Fatal("shuffled history has no same-Date ties")
	}
	return []namedLog{{"reversed-lids", reversedLids(log), false}, {"shuffled-ties", tied, true}}
}

// TestRepeatAccessOrderDifferential settles repeat access's order on logs
// whose Lids are not chronological (reversed, and shuffled with same-Date
// ties), for Tiny seeds 1-3, on the database Log, on a historical split and
// on a Join shard: over random range cuts, the mask the engine lowers onto
// its per-pair first-access table, the walked mask of the same decorated
// path and the map-scan reference agree, and on reversed Lids a Lid-only
// decoration disagrees with them somewhere. Render agrees row for row with the
// history-scan reference renderer.
func TestRepeatAccessOrderDifferential(t *testing.T) {
	tpl := explain.RepeatAccess()
	walked := walkedRepeat()
	lidOnly := explain.NewPathTemplate("lid-order", tpl.Path, "", pathmodel.Decoration{
		Left:  pathmodel.Ref{Inst: 1, Col: pathmodel.LogIDColumn},
		Op:    pathmodel.OpLT,
		Right: pathmodel.Ref{Inst: 0, Col: pathmodel.LogIDColumn},
	})
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		rng := rand.New(rand.NewSource(seed * 17))
		for _, v := range orderLogs(t, rng, ds.Log()) {
			db := accesslog.WithLog(ds.DB, v.log)
			evs := []struct {
				name string
				ev   *query.Evaluator
			}{
				{"log", query.NewEvaluator(db)},
				{"historical", historicalSplit(db)},
				{"join-shard", joinShard(t, db, 1+rng.Intn(v.log.NumRows()-1))},
			}
			for _, e := range evs {
				ev := e.ev
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, v.name, e.name), func(t *testing.T) {
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
					if lid := lidOnly.Evaluate(ev); !v.lidOrder && reflect.DeepEqual(lid, want) {
						t.Fatal("a Lid-only decoration agrees with log order on every row: the Lids exercise nothing")
					}
					calls := ev.Metrics().Counter("query.instances.calls")
					for k := 0; k < 3; k++ {
						cuts := repeatCuts(rng, n)
						for i := 0; i+1 < len(cuts); i++ {
							lo, hi := cuts[i], cuts[i+1]
							before := calls.Value()
							lowered := rangeBools(tpl, ev, lo, hi)
							if walks := calls.Value() - before; walks != 0 {
								t.Fatalf("range [%d,%d): the lowered mask walked %d rows", lo, hi, walks)
							}
							dfs := bitset.New(hi)
							ev.ExplainedRowsDecoratedRange(walked, lo, hi, dfs)
							if walks := calls.Value() - before; walks != int64(hi-lo) {
								t.Fatalf("range [%d,%d): the forced walk walked %d of %d rows", lo, hi, walks, hi-lo)
							}
							for j := range lowered {
								if lowered[j] != want[lo+j] || dfs.Get(lo+j) != want[lo+j] {
									t.Fatalf("row %d: lowered %v, walked %v, reference %v", lo+j, lowered[j], dfs.Get(lo+j), want[lo+j])
								}
							}
						}
					}
					for r := 0; r < n; r++ {
						got := tpl.Render(ev, r, 3, explain.NullNamer{})
						if ref := explain.RepeatAccessRenderReference(ev, r, explain.NullNamer{}); !reflect.DeepEqual(got, ref) {
							t.Fatalf("row %d: Render %q, reference %q", r, got, ref)
						}
					}
				})
			}
		}
	}
}

// TestRepeatAccessExtendsUnderChronologicalAppend grows the same logs the
// order differential audits: an auditor
// over the rows before the middle Date builds repeat access's mask, the
// later rows are appended in (Date, Lid) order in batches, and after each
// Refresh — which extends the mask over the appended rows, repeat access
// being append-monotone — the unexplained rows equal a rebuilt auditor's
// and the map-scan reference's.
func TestRepeatAccessExtendsUnderChronologicalAppend(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		rng := rand.New(rand.NewSource(seed * 29))
		for _, v := range orderLogs(t, rng, ds.Log()) {
			full := v.log
			t.Run(fmt.Sprintf("seed=%d/%s", seed, v.name), func(t *testing.T) {
				cols := pathmodel.LogColumnsOf(full)
				lo, hi := full.Int(0, cols.Date), full.Int(0, cols.Date)
				for r := range full.NumRows() {
					lo, hi = min(lo, full.Int(r, cols.Date)), max(hi, full.Int(r, cols.Date))
				}
				mid := (lo + hi) / 2
				var base, later []int
				for r := range full.NumRows() {
					if full.Int(r, cols.Date) < mid {
						base = append(base, r)
					} else {
						later = append(later, r)
					}
				}
				slices.SortFunc(later, func(a, b int) int {
					return cmp.Or(cmp.Compare(full.Int(a, cols.Date), full.Int(b, cols.Date)),
						cmp.Compare(full.Int(a, cols.Lid), full.Int(b, cols.Lid)))
				})
				log := selectLogRows(full, base)
				db := accesslog.WithLog(ds.DB, log)
				a := core.NewAuditor(db, nil)
				a.AddTemplates(explain.RepeatAccess())
				mustUnexplainedRows(t, a)
				extensions := a.Evaluator().Metrics().Counter("core.mask.extensions")
				for i, batch := 0, 0; i < len(later); batch++ {
					j := min(len(later), i+1+rng.Intn(200))
					for _, r := range later[i:j] {
						log.Append(full.Row(r)...)
					}
					i = j
					before := extensions.Value()
					if err := a.Refresh(ctx, 2); err != nil {
						t.Fatal(err)
					}
					if extensions.Value() != before+1 {
						t.Fatalf("batch %d: Refresh did not extend the mask", batch)
					}
					rebuilt := core.NewAuditor(db, nil)
					rebuilt.AddTemplates(explain.RepeatAccess())
					got, want := mustUnexplainedRows(t, a), mustUnexplainedRows(t, rebuilt)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d: extended mask leaves %d rows unexplained, rebuild %d", batch, len(got), len(want))
					}
					var ref []int
					for r, b := range explain.RepeatAccessReference(a.Evaluator(), 0, log.NumRows()) {
						if !b {
							ref = append(ref, r)
						}
					}
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("batch %d: extended mask leaves %d rows unexplained, reference %d", batch, len(got), len(ref))
					}
				}
			})
		}
	}
}

// mustUnexplainedRows returns a's unexplained rows at parallelism 2.
func mustUnexplainedRows(t *testing.T, a *core.Auditor) []int {
	t.Helper()
	rows, err := a.Unexplained(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

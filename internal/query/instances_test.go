package query_test

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// catalogEvaluator generates a dataset, installs its collaborative groups,
// and returns an evaluator over it with the full hand-crafted catalog's
// closed paths.
func catalogEvaluator(t *testing.T, cfg ehr.Config) (*query.Evaluator, map[string]pathmodel.Path) {
	t.Helper()
	ds := ehr.Generate(cfg)
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	a.BuildGroups(core.GroupsOptions{})
	paths := make(map[string]pathmodel.Path)
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok && len(pt.Decorations) == 0 {
			paths[tpl.Name()] = pt.Path
		}
	}
	if len(paths) < 19 {
		t.Fatalf("catalog has %d path templates, want the 19 of Handcrafted(true, true)", len(paths))
	}
	return query.NewEvaluator(ds.DB), paths
}

// backward rebuilds the closed forward path p from the Log.User end, the
// way the two-way and bridged miners construct it.
func backward(t *testing.T, p pathmodel.Path) pathmodel.Path {
	t.Helper()
	edges := p.Edges()
	b, ok := pathmodel.StartAt(pathmodel.ReverseEdge(edges[len(edges)-1]), pathmodel.LogUserColumn)
	for i := len(edges) - 2; ok && i >= 0; i-- {
		b, ok = b.Append(pathmodel.ReverseEdge(edges[i]))
	}
	if !ok || !b.Closed() || b.Forward() {
		t.Fatalf("could not rebuild %s backward", p)
	}
	return b
}

// assertInstancesMatchReference compares the compiled enumerator with the
// blind reference search for one path over every log row at limits 1, 3 and
// 1000: same bindings in the same order, and per call no more postings
// consumed and no more nodes expanded than the reference. It returns the
// nodes the two made and the bindings emitted, summed over the calls.
func assertInstancesMatchReference(t *testing.T, ev *query.Evaluator, name string, p pathmodel.Path) (nodes, refNodes, bindings int64) {
	t.Helper()
	got, ref := ev.Clone(), ev.Clone()
	nodeCounter := ev.Metrics().Counter("query.instances.nodes")
	for row := 0; row < ev.Log().NumRows(); row++ {
		for _, limit := range []int{1, 3, 1000} {
			gotScanned, refScanned := got.PostingsScanned(), ref.PostingsScanned()
			gotNodes := nodeCounter.Value()
			have := got.Instances(p, row, limit)
			want, wantNodes := ref.InstancesReference(p, row, limit)
			if len(have) != len(want) || (len(want) > 0 && !reflect.DeepEqual(have, want)) {
				t.Fatalf("%s row %d limit %d: bindings %v, reference %v", name, row, limit, have, want)
			}
			gotScanned, refScanned = got.PostingsScanned()-gotScanned, ref.PostingsScanned()-refScanned
			if gotScanned > refScanned {
				t.Fatalf("%s row %d limit %d: consumed %d postings, reference %d", name, row, limit, gotScanned, refScanned)
			}
			gotNodes = nodeCounter.Value() - gotNodes
			if gotNodes > int64(wantNodes) {
				t.Fatalf("%s row %d limit %d: expanded %d nodes, reference %d", name, row, limit, gotNodes, wantNodes)
			}
			nodes, refNodes, bindings = nodes+gotNodes, refNodes+int64(wantNodes), bindings+int64(len(have))
		}
	}
	return nodes, refNodes, bindings
}

// TestInstancesMatchReference is the enumerator's differential oracle: on
// three seeded datasets, every catalog template, forward and rebuilt
// backward, enumerates exactly what the blind search does.
func TestInstancesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ev, paths := catalogEvaluator(t, cfg)
		var bindings int64
		for name, p := range paths {
			_, _, n := assertInstancesMatchReference(t, ev, name, p)
			bindings += n
			assertInstancesMatchReference(t, ev, name+" (backward)", backward(t, p))
		}
		if bindings == 0 {
			t.Fatalf("seed %d: no template produced a binding", seed)
		}
	}
}

// TestInstancesMemoMatchesPlain is the instance memo's law: four cursors
// sharing one InstanceMemo, each walking every catalog path (forward and
// rebuilt backward) at limits 1 and 3 over every row, concurrently and
// from staggered starting rows so they race on the same entries, return
// exactly what a plain cursor and the blind reference return. A second
// pass is served from the memo alone, and once the cursors have flushed,
// the instance counters count a hit as the walk it stands for: calls and
// bindings match the plain cursor's, nodes do not grow.
func TestInstancesMemoMatchesPlain(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ev, catalog := catalogEvaluator(t, cfg)
		var paths []pathmodel.Path
		for _, p := range catalog {
			paths = append(paths, p, backward(t, p))
		}
		limits := []int{1, 3}
		n := ev.Log().NumRows()
		reg := ev.Metrics()
		counter := func(name string) int64 { return reg.Counter("query.instances." + name).Value() }

		// want[(path*len(limits)+limit)*n+row] is the plain cursor's answer,
		// itself checked against the reference.
		want := make([][]query.InstanceBinding, len(paths)*len(limits)*n)
		plain, ref := ev.Clone(), ev.Clone()
		calls, bindings := counter("calls"), counter("bindings")
		for pi, p := range paths {
			for li, limit := range limits {
				for row := 0; row < n; row++ {
					have := plain.Instances(p, row, limit)
					if r, _ := ref.InstancesReference(p, row, limit); !reflect.DeepEqual(have, r) {
						t.Fatalf("seed %d %s row %d limit %d: plain cursor %v, reference %v", seed, p, row, limit, have, r)
					}
					want[(pi*len(limits)+li)*n+row] = have
				}
			}
		}
		calls, bindings = counter("calls")-calls, counter("bindings")-bindings

		memo := ev.NewInstanceMemo()
		const workers = 4
		pass := func(name string) {
			c, b, nodes := counter("calls"), counter("bindings"), counter("nodes")
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				cur := ev.CloneWithMemo(memo)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer cur.FlushStats() // a memo cursor holds its counts until its owner flushes
					for k := 0; k < n; k++ {
						row := (k + w*n/workers) % n
						for pi, p := range paths {
							for li, limit := range limits {
								have := cur.Instances(p, row, limit)
								if exp := want[(pi*len(limits)+li)*n+row]; !reflect.DeepEqual(have, exp) {
									errs[w] = fmt.Errorf("%s row %d limit %d: memo cursor %d returned %v, plain %v", p, row, limit, w, have, exp)
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("seed %d %s pass: %v", seed, name, err)
				}
			}
			if c, b := counter("calls")-c, counter("bindings")-b; c != workers*calls || b != workers*bindings {
				t.Errorf("seed %d %s pass: %d calls / %d bindings, want %d / %d (the plain cursor's, %d times)",
					seed, name, c, b, workers*calls, workers*bindings, workers)
			}
			if name == "warm" && counter("nodes") != nodes {
				t.Errorf("seed %d warm pass: expanded %d nodes, want none", seed, counter("nodes")-nodes)
			}
		}
		hits, misses := counter("memo_hits"), counter("memo_misses")
		pass("cold")
		coldMisses := counter("memo_misses") - misses
		pass("warm")
		if counter("memo_misses")-misses != coldMisses {
			t.Errorf("seed %d: the warm pass missed %d times, want 0", seed, counter("memo_misses")-misses-coldMisses)
		}
		if h, m := counter("memo_hits")-hits, counter("memo_misses")-misses; h+m != 2*workers*calls || h == 0 {
			t.Errorf("seed %d: %d memo hits + %d misses, want %d calls with some hits", seed, h, m, 2*workers*calls)
		}
	}
}

// TestInstancesNodesPerBinding pins the work the guided walk spends per
// explanation instance on the Small seed-1 catalog, rendering each template
// for the rows it explains the way an audit does: at most twice the blind
// search's floor of path length + 1 nodes per binding, where the blind
// search itself spent 77 across the catalog.
func TestInstancesNodesPerBinding(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the Small dataset")
	}
	ev, paths := catalogEvaluator(t, ehr.Small())
	nodeCounter := ev.Metrics().Counter("query.instances.nodes")
	bindingCounter := ev.Metrics().Counter("query.instances.bindings")
	var allNodes, allBindings int64
	for name, p := range paths {
		mask := ev.ExplainedBools(p)
		nodes, bindings := nodeCounter.Value(), bindingCounter.Value()
		for row, explained := range mask {
			if explained && len(ev.Instances(p, row, 3)) == 0 {
				t.Fatalf("%s: row %d is explained but has no instance", name, row)
			}
		}
		nodes, bindings = nodeCounter.Value()-nodes, bindingCounter.Value()-bindings
		if bindings == 0 {
			continue
		}
		if bound := int64(2 * (p.Length() + 1)); nodes > bound*bindings {
			t.Errorf("%s: %d nodes for %d bindings (%.1f per binding), want at most %d per binding",
				name, nodes, bindings, float64(nodes)/float64(bindings), bound)
		}
		allNodes, allBindings = allNodes+nodes, allBindings+bindings
	}
	if allBindings == 0 || allNodes > 8*allBindings {
		t.Errorf("catalog: %d nodes for %d bindings, want at most 8 per binding", allNodes, allBindings)
	}
	t.Logf("catalog: %d nodes / %d bindings = %.2f", allNodes, allBindings, float64(allNodes)/float64(allBindings))
}

// TestInstancesProbesLongPostingList covers the grouped closing hop
// directly: a last instance with a long posting list, the user's rows
// scattered through it and a decoration on that instance, must bind
// exactly the rows the blind search binds, in order, while consuming only
// the matching postings.
func TestInstancesProbesLongPostingList(t *testing.T) {
	db := relation.NewDatabase()
	log := relation.NewTable(pathmodel.LogTable, pathmodel.LogIDColumn, pathmodel.LogDateColumn,
		pathmodel.LogUserColumn, pathmodel.LogPatientColumn)
	log.Append(relation.Int(1), relation.Date(0), relation.Int(7), relation.Int(1))
	log.Append(relation.Int(2), relation.Date(0), relation.Int(999), relation.Int(1)) // nobody's rows
	db.AddTable(log)
	ev := relation.NewTable("Ev", "P", "N", "U")
	for i := 0; i < 500; i++ {
		ev.Append(relation.Int(1), relation.Int(int64(i)), relation.Int(int64(i%10)))
	}
	db.AddTable(ev)
	attr := func(c string) schemagraph.Attr { return schemagraph.Attr{Table: "Ev", Column: c} }
	p := mustPath(t,
		schemagraph.Edge{From: pathmodel.StartAttr(), To: attr("P"), Kind: schemagraph.KeyFK},
		schemagraph.Edge{From: attr("U"), To: pathmodel.EndAttr(), Kind: schemagraph.KeyFK},
	)
	e := query.NewEvaluator(db)
	assertInstancesMatchReference(t, e, "probe", p)

	got := e.Clone()
	if n := len(got.Instances(p, 0, 1000)); n != 50 {
		t.Fatalf("user 7 has %d instances, want 50", n)
	}
	if scanned := got.PostingsScanned(); scanned != 50 {
		t.Errorf("probing consumed %d postings for 50 matches in a 500-row list, want 50", scanned)
	}

	hundred := relation.Int(100)
	dp := pathmodel.NewDecoratedPath(p, pathmodel.Decoration{
		Left: pathmodel.Ref{Inst: 1, Col: "N"}, Op: pathmodel.OpLT, Const: &hundred,
	})
	var want []query.InstanceBinding
	for i := 7; i < 100; i += 10 {
		want = append(want, query.InstanceBinding{Rows: []int{i}})
	}
	if have := e.InstancesDecorated(dp, 0, 1000); !reflect.DeepEqual(have, want) {
		t.Errorf("decorated probe bound %v, want %v", have, want)
	}
	if mask := e.ExplainedRowsDecorated(dp); !reflect.DeepEqual(mask, []bool{true, false}) {
		t.Errorf("decorated mask = %v, want [true false]", mask)
	}
}

// sameBindings reports whether two binding lists are equal, nil and empty
// alike.
func sameBindings(a, b []query.InstanceBinding) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// decorationsHold reports whether binding b of the audited row satisfies
// every decoration of dp, read off the tables by name; a LogOrder compares
// Date, then Lid.
func decorationsHold(ev *query.Evaluator, dp pathmodel.DecoratedPath, row int, b query.InstanceBinding) bool {
	value := func(r pathmodel.Ref, col string) relation.Value {
		if r.Inst == 0 {
			return ev.Log().Get(row, col)
		}
		return ev.Database().MustTable(dp.Base.Instances()[r.Inst].Table).Get(b.Rows[r.Inst-1], col)
	}
	for _, d := range dp.Decorations {
		var c int
		switch {
		case d.Const != nil:
			c = value(d.Left, d.Left.Col).Compare(*d.Const)
		case d.Left.Col == pathmodel.LogOrder:
			c = cmp.Or(value(d.Left, pathmodel.LogDateColumn).Compare(value(d.Right, pathmodel.LogDateColumn)),
				value(d.Left, pathmodel.LogIDColumn).Compare(value(d.Right, pathmodel.LogIDColumn)))
		default:
			c = value(d.Left, d.Left.Col).Compare(value(d.Right, d.Right.Col))
		}
		if !d.Op.Eval(c) {
			return false
		}
	}
	return true
}

// TestDecoratedInstancesMatchReference pins decorated bindings to the blind
// search. On three seeded datasets, for repeat access (whose mask the
// engine does not walk but reads off its per-pair first-access state) and
// for every other catalog path, forward and rebuilt backward, with one
// constant decoration on its last instance, InstancesDecorated at limits 1,
// 3 and 1000 returns the reference's unlimited bindings filtered by the
// decorations and cut to the limit, and ExplainedRowsDecorated marks
// exactly the rows with a first binding.
func TestDecoratedInstancesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ev, paths := catalogEvaluator(t, cfg)
		rt := explain.RepeatAccess()
		dps := map[string]pathmodel.DecoratedPath{"repeat-access": {Base: rt.Path, Decorations: rt.Decorations}}
		for name, p := range paths {
			insts := p.Instances()
			last := insts[len(insts)-1]
			tb := ev.Database().MustTable(last.Table)
			col := last.Entry
			for _, c := range tb.Columns() {
				if c != last.Entry && c != last.Exit {
					col = c
					break
				}
			}
			vals := slices.Collect(maps.Keys(tb.Index(col)))
			slices.SortFunc(vals, relation.Value.Compare)
			c := vals[len(vals)/2]
			d := pathmodel.Decoration{Left: pathmodel.Ref{Inst: len(insts) - 1, Col: col}, Op: pathmodel.OpLE, Const: &c}
			dps[name] = pathmodel.NewDecoratedPath(p, d)
			dps[name+" (backward)"] = pathmodel.NewDecoratedPath(backward(t, p), d)
		}
		cur, ref := ev.Clone(), ev.Clone()
		var bindings, filtered int
		for name, dp := range dps {
			mask := cur.ExplainedRowsDecorated(dp)
			for row := 0; row < ev.Log().NumRows(); row++ {
				all, _ := ref.InstancesReference(dp.Base, row, 1<<30)
				var want []query.InstanceBinding
				for _, b := range all {
					if decorationsHold(ev, dp, row, b) {
						want = append(want, b)
					}
				}
				bindings, filtered = bindings+len(want), filtered+len(all)-len(want)
				for _, limit := range []int{1, 3, 1000} {
					if have, w := cur.InstancesDecorated(dp, row, limit), want[:min(limit, len(want))]; !sameBindings(have, w) {
						t.Fatalf("seed %d %s row %d limit %d: bindings %v, filtered reference %v", seed, name, row, limit, have, w)
					}
				}
				if first := len(cur.InstancesDecorated(dp, row, 1)) > 0; mask[row] != first {
					t.Fatalf("seed %d %s row %d: ExplainedRowsDecorated %v, first binding %v", seed, name, row, mask[row], first)
				}
			}
		}
		if bindings == 0 || filtered == 0 {
			t.Fatalf("seed %d: %d bindings kept and %d filtered out; the decorations must do both", seed, bindings, filtered)
		}
	}
}

// TestInstancesFreshAfterMutations pins the walk's freshness rule on one
// long-lived cursor without a memo: after an append to a hop table, a
// schema change replacing Groups, and an append to the audited log of a
// row whose patient and user appear nowhere else, Instances on the same
// cursor still equals the blind search for every catalog path and row. The
// log's ID projections cover the rows before the last append, so the walk
// reads old rows' IDs off them and looks the new row's values up.
func TestInstancesFreshAfterMutations(t *testing.T) {
	ev, paths := catalogEvaluator(t, ehr.Tiny())
	db := ev.Database()
	cur, ref := ev.Clone(), ev.Clone()
	for _, p := range paths {
		ev.ExplainedBools(p)
		break
	}
	check := func(when string) {
		t.Helper()
		for name, p := range paths {
			for row := 0; row < ev.Log().NumRows(); row++ {
				have := cur.Instances(p, row, 1000)
				if want, _ := ref.InstancesReference(p, row, 1000); !sameBindings(have, want) {
					t.Fatalf("%s, %s row %d: bindings %v, reference %v", when, name, row, have, want)
				}
			}
		}
	}
	check("before any mutation")

	appts := db.MustTable(ehr.TableAppointments)
	for r := range appts.NumRows() {
		appts.Append(appts.Row(r)...) // every appointment binding gains a twin
	}
	check("after an append to Appointments")

	groups := db.MustTable(ehr.TableGroups)
	kept := 0
	db.AddTable(groups.Filter(ehr.TableGroups, func(int) bool { kept++; return kept%3 != 0 }))
	check("after Groups was replaced")

	log := ev.Log()
	row := slices.Clone(log.Row(log.NumRows() - 1))
	lid, _ := log.ColumnIndex(pathmodel.LogIDColumn)
	pi, _ := log.ColumnIndex(pathmodel.LogPatientColumn)
	ui, _ := log.ColumnIndex(pathmodel.LogUserColumn)
	row[lid], row[pi], row[ui] = relation.Int(1<<40), relation.Int(1<<41), relation.Int(1<<42)
	log.Append(row...)
	check("after a log append of a never-seen patient and user")
}

// TestPointRenderLeavesLogUninterned pins what a point render pays for. On a
// fresh evaluator, instance walks over every catalog path intern the
// columns their hops join on and nothing of the audited log: the log's ID
// projections stay empty, every dictionary value is a value of an interned
// column of a hop table, and no plan is lowered.
func TestPointRenderLeavesLogUninterned(t *testing.T) {
	ev, paths := catalogEvaluator(t, ehr.Tiny())
	bindings := 0
	for _, p := range paths {
		for row := 0; row < ev.Log().NumRows(); row += 7 {
			bindings += len(ev.Instances(p, row, 3))
		}
	}
	if bindings == 0 {
		t.Fatal("no catalog path bound an instance")
	}
	if n := ev.InternedLogRows(); n != 0 {
		t.Errorf("the point renders interned %d audited log rows, want none", n)
	}
	values := make(map[relation.Value]bool)
	for _, c := range ev.InternedColumns() {
		if c.Table == ev.Log() {
			t.Errorf("the point renders interned the audited log's %s column", c.Column)
		}
		for _, v := range c.Values {
			values[v] = true
		}
	}
	if got := ev.Metrics().Gauge("query.dict.values").Value(); got != int64(len(values)) {
		t.Errorf("query.dict.values = %d, want the %d values of the interned columns", got, len(values))
	}
	if n := ev.PlanCacheStats().PlansPlanned; n != 0 {
		t.Errorf("the point renders lowered %d plans, want none", n)
	}
}

package query_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/pathmodel"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exec_golden.txt and exec_open_golden.txt from this build")

// TestShardInvarianceAndGoldenTallies pins what the set-valued walk must not
// change. For every catalog path template on three Tiny hospitals, the mask
// sharded over 1, 3 and 17 ranges concatenates to the same rows, and the
// support, the postings one Support call scans and the per-op exec tallies
// accumulated over all of it equal the values testdata/exec_golden.txt
// holds. Its support= fields date from the walk in log order over a
// hash-map memo; its tallies count the set memo's sub-questions.
func TestShardInvarianceAndGoldenTallies(t *testing.T) {
	goldenTallies(t, "testdata/exec_golden.txt", func(p pathmodel.Path) []pathmodel.Path {
		return []pathmodel.Path{p}
	})
}

// TestOpenPrefixGoldenTallies is the same harness over every open proper
// prefix of each catalog path: an open plan's set memo holds one bit, so
// its supports, postings and exec tallies must equal those
// testdata/exec_open_golden.txt captured from the one-verdict-per-value
// walk the set memo replaced.
func TestOpenPrefixGoldenTallies(t *testing.T) {
	goldenTallies(t, "testdata/exec_open_golden.txt", openPrefixes)
}

// openPrefixes returns the open paths made of p's first 1..len-1 edges.
func openPrefixes(p pathmodel.Path) []pathmodel.Path {
	edges := p.Edges()
	var out []pathmodel.Path
	q, ok := pathmodel.StartAt(edges[0], p.StartColumn())
	for k := 1; ok && k < len(edges); k++ {
		out = append(out, q)
		q, ok = q.Append(edges[k])
	}
	return out
}

// goldenTallies runs the golden harness over the paths expand derives from
// each catalog path template, one line per distinct plan, and compares the
// lines with golden (or rewrites it under -update-golden).
func goldenTallies(t *testing.T, golden string, expand func(pathmodel.Path) []pathmodel.Path) {
	t.Helper()
	var got bytes.Buffer
	for _, seed := range []int64{1, 2, 3} {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		ds := ehr.Generate(cfg)
		h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
		ds.DB.AddTable(h.Table("Groups"))
		ev := query.NewEvaluator(ds.DB)
		ev.SetExecStats(true)
		n := ev.Log().NumRows()
		seen := make(map[string]bool)

		for _, tpl := range explain.Handcrafted(true, true).All() {
			pt, ok := tpl.(*explain.PathTemplate)
			if !ok || len(pt.Decorations) > 0 {
				continue
			}
			for _, p := range expand(pt.Path) {
				if seen[p.CanonicalKey()] {
					continue
				}
				seen[p.CanonicalKey()] = true
				name := pt.Name()
				if !p.Closed() {
					name = fmt.Sprintf("%s/%d", name, p.Length())
				}
				pp := ev.Prepare(p)
				before := ev.PostingsScanned()
				support := pp.Support()
				scanned := ev.PostingsScanned() - before

				var full []bool
				for _, shards := range []int{1, 3, 17} {
					mask := bitset.New(n)
					for w := 0; w < shards; w++ {
						lo, hi := n*w/shards, n*(w+1)/shards
						if p.Closed() {
							pp.ExplainedRange(lo, hi, mask)
						} else {
							pp.ConnectedRange(lo, hi, mask)
						}
					}
					rows := query.Bools(mask)
					if full == nil {
						full = rows
					} else if !reflect.DeepEqual(rows, full) {
						t.Errorf("seed %d, %s: %d shards do not stitch to the full mask", seed, name, shards)
					}
				}
				if pop := popcount(full); pop != support {
					t.Errorf("seed %d, %s: Support = %d, mask popcount = %d", seed, name, support, pop)
				}

				fmt.Fprintf(&got, "seed=%d %s support=%d scanned=%d", seed, name, support, scanned)
				for i, o := range pp.ExecTrace().Ops {
					fmt.Fprintf(&got, " op%d=%d/%d/%d/%d", i, o.RowsIn, o.RowsOut, o.Postings, o.MemoHits)
				}
				got.WriteByte('\n')
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("tallies differ from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tallies differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestConcurrentCursorsInternOnce starts eight cursors on a fresh engine
// at once, each beginning at a different plan of one plan set — the
// catalog's closed paths, their reverses and their open prefixes — so the
// first evaluations race to intern the log and the tables' columns and to
// lower projections, several at a time. Each plan is counted over the whole
// log (its pairs), over half of it (its rows) and estimated; every cursor
// must get a lone cursor's numbers. Run it under -race.
func TestConcurrentCursorsInternOnce(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	var paths []pathmodel.Path
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok && len(pt.Decorations) == 0 {
			paths = append(paths, pt.Path, backward(t, pt.Path))
			paths = append(paths, openPrefixes(pt.Path)...)
		}
	}
	type result struct{ whole, half, estimate int }
	eval := func(ev *query.Evaluator, p pathmodel.Path) result {
		pp := ev.Prepare(p)
		return result{pp.Support(), pp.SupportRange(0, ev.Log().NumRows()/2), ev.EstimateSupport(p)}
	}
	want := make([]result, len(paths))
	lone := query.NewEvaluator(ds.DB)
	for i, p := range paths {
		want[i] = eval(lone, p)
	}

	ev := query.NewEvaluator(ds.DB)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := ev.Clone()
			for k := range paths {
				i := (k + w) % len(paths) // start each cursor on a different plan
				if got := eval(cur, paths[i]); got != want[i] {
					t.Errorf("cursor %d, %s: %+v, lone cursor %+v", w, paths[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if got, lone := ev.Metrics().Gauge("query.dict.values").Value(), lone.Metrics().Gauge("query.dict.values").Value(); got != lone || got == 0 {
		t.Errorf("query.dict.values = %d after concurrent interning, lone engine %d", got, lone)
	}
}

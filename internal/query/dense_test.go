package query_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/groups"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exec_golden.txt from this build")

// TestShardInvarianceAndGoldenTallies pins what the row-grouped walk must not
// change. For every catalog path template on three Tiny hospitals, the mask
// sharded over 1, 3 and 17 ranges concatenates to the same rows, and the
// support, the postings one Support call scans and the per-op exec tallies
// accumulated over all of it equal the values testdata/exec_golden.txt
// holds — captured from the commit before rows were visited grouped by
// target, when the walk ran in log order over a hash-map memo.
func TestShardInvarianceAndGoldenTallies(t *testing.T) {
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

		for _, tpl := range explain.Handcrafted(true, true).All() {
			pt, ok := tpl.(*explain.PathTemplate)
			if !ok {
				continue
			}
			pp := ev.Prepare(pt.Path)
			before := ev.PostingsScanned()
			support := pp.Support()
			scanned := ev.PostingsScanned() - before

			var full []bool
			for _, shards := range []int{1, 3, 17} {
				var rows []bool
				for w := 0; w < shards; w++ {
					rows = append(rows, pp.ExplainedRange(n*w/shards, n*(w+1)/shards)...)
				}
				if full == nil {
					full = rows
				} else if !reflect.DeepEqual(rows, full) {
					t.Errorf("seed %d, %s: %d shards do not concatenate to the full mask", seed, pt.Name(), shards)
				}
			}
			pop := 0
			for _, b := range full {
				if b {
					pop++
				}
			}
			if pop != support {
				t.Errorf("seed %d, %s: Support = %d, mask popcount = %d", seed, pt.Name(), support, pop)
			}

			fmt.Fprintf(&got, "seed=%d %s support=%d scanned=%d", seed, pt.Name(), support, scanned)
			for i, o := range pp.ExecTrace().Ops {
				fmt.Fprintf(&got, " op%d=%d/%d/%d/%d", i, o.RowsIn, o.RowsOut, o.Postings, o.MemoHits)
			}
			got.WriteByte('\n')
		}
	}

	const golden = "testdata/exec_golden.txt"
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

// TestConcurrentCursorsInternOnce starts many cursors on a fresh engine at
// once, so the first evaluations race to lower the projections and intern
// the log; every one must see the answer a lone cursor computes. Run it
// under -race.
func TestConcurrentCursorsInternOnce(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	h := groups.BuildHierarchy(groups.BuildUserGraph(ds.Log()), 8)
	ds.DB.AddTable(h.Table("Groups"))
	var paths []*explain.PathTemplate
	for _, tpl := range explain.Handcrafted(true, true).All() {
		if pt, ok := tpl.(*explain.PathTemplate); ok {
			paths = append(paths, pt)
		}
	}
	want := make([]int, len(paths))
	lone := query.NewEvaluator(ds.DB)
	for i, pt := range paths {
		want[i] = lone.Support(pt.Path)
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
				if got := cur.Support(paths[i].Path); got != want[i] {
					t.Errorf("cursor %d, %s: Support = %d, want %d", w, paths[i].Name(), got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if got, lone := ev.Metrics().Gauge("query.dict.values").Value(), lone.Metrics().Gauge("query.dict.values").Value(); got != lone || got == 0 {
		t.Errorf("query.dict.values = %d after concurrent interning, lone engine %d", got, lone)
	}
}

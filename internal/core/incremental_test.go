package core_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// truncatedDB rebuilds ds's database with the log cut to its first cut rows
// (event tables shared), returning the new database and the full source
// log. The generator emits the log in (Date, Lid) order with ascending
// Lids, so the removed suffix is exactly a chronological append batch.
func truncatedDB(ds *ehr.Dataset, cut int) (*relation.Database, *relation.Table) {
	full := ds.DB.MustTable(pathmodel.LogTable)
	rows := make([]int, cut)
	for r := range rows {
		rows[r] = r
	}
	db := relation.NewDatabase()
	for _, name := range ds.DB.TableNames() {
		if name == pathmodel.LogTable {
			db.AddTable(selectRows(full, rows))
		} else {
			db.AddTable(ds.DB.Table(name))
		}
	}
	return db, full
}

// TestRefreshMatchesRebuild is the incremental-audit differential: on three
// differently seeded datasets and at parallelism 1 and 4, warming an
// auditor on a truncated log, appending the held-out suffix, and calling
// Refresh must produce reports, explained fraction, and unexplained
// shortlist byte-identical to an auditor built from scratch over the grown
// database — while extending every cached mask instead of recomputing any.
func TestRefreshMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		for _, par := range []int{1, 4} {
			cfg := ehr.Tiny()
			cfg.Seed = seed
			ds := ehr.Generate(cfg)
			n := ds.DB.MustTable(pathmodel.LogTable).NumRows()
			cut := n * 9 / 10
			db, full := truncatedDB(ds, cut)

			a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
			a.BuildGroups(core.GroupsOptions{})
			a.AddTemplates(explain.Handcrafted(true, true).All()...)
			if got := mustReports(t, a, par); len(got) != cut {
				t.Fatalf("seed %d: warm-up audited %d rows, want %d", seed, len(got), cut)
			}
			recomputes := a.PlanCacheStats().MaskRecomputes

			// Append the held-out suffix — strictly later (Date, Lid) rows.
			log := db.MustTable(pathmodel.LogTable)
			for r := cut; r < n; r++ {
				log.Append(full.Row(r)...)
			}
			if err := a.Refresh(ctx, par); err != nil {
				t.Fatalf("seed %d: Refresh: %v", seed, err)
			}
			st := a.PlanCacheStats()
			if st.MaskRecomputes != recomputes {
				t.Errorf("seed %d par %d: Refresh recomputed %d masks from scratch, want 0",
					seed, par, st.MaskRecomputes-recomputes)
			}
			if want := int64(len(a.Templates())); st.MaskExtensions != want {
				t.Errorf("seed %d par %d: MaskExtensions = %d, want %d",
					seed, par, st.MaskExtensions, want)
			}

			got := mustReports(t, a, par)
			gotFraction := mustFraction(t, a, par)
			gotUnexplained := mustUnexplained(t, a, par)

			// The rebuild oracle: a fresh auditor over the same grown
			// database (sharing the Groups table — Refresh does not retrain
			// groups, so neither may the reference).
			b := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
			b.AddTemplates(a.Templates()...)
			want := mustReports(t, b, par)
			if len(got) != n {
				t.Fatalf("seed %d: refreshed audit covers %d rows, want %d", seed, len(got), n)
			}
			if !reflect.DeepEqual(got, want) {
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("seed %d par %d: refreshed report for row %d differs:\n got %+v\nwant %+v",
							seed, par, r, got[r], want[r])
					}
				}
			}
			if wantF := mustFraction(t, b, par); gotFraction != wantF {
				t.Errorf("seed %d par %d: refreshed fraction = %v, want %v", seed, par, gotFraction, wantF)
			}
			if wantU := mustUnexplained(t, b, par); !reflect.DeepEqual(gotUnexplained, wantU) {
				t.Errorf("seed %d par %d: refreshed unexplained = %v, want %v", seed, par, gotUnexplained, wantU)
			}
		}
	}
}

// TestRefreshSingleRowAPI exercises the point methods across an append:
// ExplainRow and ExplainedFraction after appends must match a rebuilt
// auditor row for row without Refresh ever being called explicitly (every
// mask read goes through the same extend-or-rebuild policy).
func TestRefreshSingleRowAPI(t *testing.T) {
	cfg := ehr.Tiny()
	cfg.Seed = 2
	ds := ehr.Generate(cfg)
	n := ds.DB.MustTable(pathmodel.LogTable).NumRows()
	cut := n - n/20
	db, full := truncatedDB(ds, cut)

	a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	mustFraction(t, a, 1) // warm masks on the truncated log

	log := db.MustTable(pathmodel.LogTable)
	for r := cut; r < n; r++ {
		log.Append(full.Row(r)...)
	}

	b := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
	b.AddTemplates(a.Templates()...)
	for r := 0; r < n; r++ {
		if got, want := mustExplainRow(t, a, r, 0), mustExplainRow(t, b, r, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d differs after lazy extension:\n got %+v\nwant %+v", r, got, want)
		}
	}
	if got, want := mustFraction(t, a, 1), mustFraction(t, b, 1); got != want {
		t.Errorf("lazy-extended fraction = %v, want %v", got, want)
	}
	if st := a.PlanCacheStats(); st.MaskExtensions == 0 {
		t.Error("lazy mask path never extended (expected MaskExtensions > 0)")
	}
}

// TestMaskCacheSurvivesUnrelatedConfig is the over-invalidation regression:
// registering more templates keeps every cached mask, adding a table no
// template reads keeps every cached mask, and replacing the Groups table
// drops only the group templates' masks — all while audit results stay
// correct.
func TestMaskCacheSurvivesUnrelatedConfig(t *testing.T) {
	a := buildSeededAuditor(t, 1)
	before := mustReports(t, a, 2)
	base := a.PlanCacheStats().MaskRecomputes

	// New templates get masks lazily; existing masks survive.
	extra := explain.WithDrTemplate("appt-with-dr-again", "Appointments", "an appointment")
	a.AddTemplates(extra)
	withExtra := mustReports(t, a, 2)
	if len(withExtra) != len(before) {
		t.Fatalf("audit after AddTemplates covers %d rows, want %d", len(withExtra), len(before))
	}
	st := a.PlanCacheStats()
	if st.MaskRecomputes != base+1 {
		t.Errorf("AddTemplates recomputed %d masks, want 1 (the new template only)", st.MaskRecomputes-base)
	}

	// An unrelated table add keeps every mask.
	a.AddTable(relation.NewTable("SideFeed", "Patient", "Date"))
	mustReports(t, a, 2)
	if got := a.PlanCacheStats().MaskRecomputes; got != base+1 {
		t.Errorf("unrelated AddTable recomputed %d masks, want 0", got-base-1)
	}

	// Replacing the Groups table invalidates exactly the group templates.
	groupsReaders := int64(0)
	for _, tpl := range a.Templates() {
		if slices.Contains(explain.TemplateTables(tpl), core.DefaultGroupsTable) {
			groupsReaders++
		}
	}
	if groupsReaders == 0 {
		t.Fatal("catalog has no group templates; regression test needs some")
	}
	grp := a.Database().MustTable(core.DefaultGroupsTable)
	a.AddTable(grp.Clone(core.DefaultGroupsTable))
	after := mustReports(t, a, 2)
	if got := a.PlanCacheStats().MaskRecomputes; got != base+1+groupsReaders {
		t.Errorf("Groups replacement recomputed %d masks, want %d (the group templates)",
			got-base-1, groupsReaders)
	}
	// The replacement had identical content, so reports must not change.
	for r := range withExtra {
		if !reflect.DeepEqual(after[r].Explanations, withExtra[r].Explanations) {
			t.Fatalf("report for row %d changed across identical Groups replacement", r)
		}
	}
}

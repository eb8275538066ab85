package core_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestUnreferencedTableChangesNothing is a metamorphic law of the paper's
// definitions: an explanation is a path through tables the templates name,
// so a table no template reads cannot change which accesses are explained
// or how. On Tiny seeds 1–3, registering such a table — before the auditor
// is built, or after its masks are — leaves every template mask and the
// StreamNDJSON bytes as they were. The table reuses the Log's column names,
// so nothing can tell it apart by name alone.
func TestUnreferencedTableChangesNothing(t *testing.T) {
	unreferenced := func() *relation.Table {
		tb := relation.NewTable("Unreferenced", "Lid", "Date", "User", "Patient")
		for i := range 50 {
			tb.Append(relation.Int(int64(i)), relation.Date(i%7), relation.Int(int64(i%5)), relation.Int(int64(i%9)))
		}
		return tb
	}
	audit := func(ds *ehr.Dataset, addAfterMasks bool) ([]byte, []store.MaskState) {
		a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(ds))
		a.BuildGroups(core.GroupsOptions{})
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		if addAfterMasks {
			if err := a.Refresh(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			ds.DB.AddTable(unreferenced())
		}
		var out bytes.Buffer
		if err := a.StreamNDJSON(context.Background(), 2, func(buf []byte, _, _ int) error {
			out.Write(buf)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), a.CaptureWarmState().Masks
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := ehr.Tiny()
		cfg.Seed = seed
		wantBytes, wantMasks := audit(ehr.Generate(cfg), false)
		if len(wantMasks) == 0 || len(wantBytes) == 0 {
			t.Fatalf("seed %d: the reference audit has %d masks and %d bytes", seed, len(wantMasks), len(wantBytes))
		}

		before := ehr.Generate(cfg)
		before.DB.AddTable(unreferenced())
		for name, ds := range map[string]*ehr.Dataset{"added first": before, "added after masks": ehr.Generate(cfg)} {
			gotBytes, gotMasks := audit(ds, name == "added after masks")
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("seed %d, table %s: StreamNDJSON wrote %d bytes that differ from the %d without it", seed, name, len(gotBytes), len(wantBytes))
			}
			if !reflect.DeepEqual(gotMasks, wantMasks) {
				t.Errorf("seed %d, table %s: template masks changed", seed, name)
			}
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/pathmodel"
	"repro/internal/relation"
	"repro/internal/store"
)

// StartupFigure reports the durable warm-start experiment: time-to-first-
// report for a cold process (open the segment store, rebuild every template
// mask) versus a warm one (open the store, install its snapshot). It is the
// repo's extension experiment for the persistence subsystem, not a figure
// from the paper.
type StartupFigure struct {
	Err           string
	Tables        int
	LogRows       int
	ColdMillis    float64
	WarmMillis    float64
	MasksRestored int
	PlansRestored int
}

// Render prints the two startup times and the speedup.
func (f StartupFigure) Render() string {
	var b strings.Builder
	b.WriteString("Durable warm start: time-to-first-report from a segment store\n")
	if f.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", f.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  store: %d tables, %d log rows\n", f.Tables, f.LogRows)
	fmt.Fprintf(&b, "  cold start (open + rebuild masks)    %8.1f ms\n", f.ColdMillis)
	fmt.Fprintf(&b, "  warm start (open + install snapshot) %8.1f ms  (%.1fx faster; %d masks, %d plans restored)\n",
		f.WarmMillis, f.ColdMillis/f.WarmMillis, f.MasksRestored, f.PlansRestored)
	return b.String()
}

// Startup persists the environment's database to a temporary segment store,
// saves a warm snapshot from one fully audited session, then times two fresh
// starts against the same directory — one ignoring the snapshot, one
// installing it. Both starts pay the same store-open and auditor-
// configuration cost; the measured gap is exactly the mask and plan state
// the snapshot carries across the restart.
func Startup(env *Env) StartupFigure {
	fail := func(err error) StartupFigure { return StartupFigure{Err: err.Error()} }
	dir, err := os.MkdirTemp("", "ebstartup")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	if _, err := store.Create(dir, env.DS.DB); err != nil {
		return fail(err)
	}

	build := func(db *relation.Database) *core.Auditor {
		a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
		a.AddTemplates(explain.Handcrafted(true, true).All()...)
		return a
	}

	// Session one: audit everything, save the snapshot. Warming against the
	// reopened database keeps its schema-version stamp aligned with what
	// every later Open reconstructs.
	s, db, err := store.Open(dir)
	if err != nil {
		return fail(err)
	}
	a := build(db)
	if err := a.Refresh(context.Background(), runtime.GOMAXPROCS(0)); err != nil {
		return fail(err)
	}
	if err := s.SaveWarmState(db, a.CaptureWarmState()); err != nil {
		return fail(err)
	}

	// Cold restart: first report forces every mask from row 0.
	t0 := time.Now()
	_, dbCold, err := store.Open(dir)
	if err != nil {
		return fail(err)
	}
	aCold := build(dbCold)
	if _, err := aCold.ExplainRow(0, 1); err != nil {
		return fail(err)
	}
	cold := time.Since(t0)

	// Warm restart: the snapshot supplies the masks the cold start rebuilt.
	t0 = time.Now()
	sWarm, dbWarm, err := store.Open(dir)
	if err != nil {
		return fail(err)
	}
	aWarm := build(dbWarm)
	ws, err := sWarm.LoadWarmState(dbWarm)
	if err != nil {
		return fail(err)
	}
	masks, plans := aWarm.InstallWarmState(ws)
	if _, err := aWarm.ExplainRow(0, 1); err != nil {
		return fail(err)
	}
	warm := time.Since(t0)

	return StartupFigure{
		Tables:        len(dbWarm.TableNames()),
		LogRows:       aWarm.Database().MustTable(pathmodel.LogTable).NumRows(),
		ColdMillis:    float64(cold.Microseconds()) / 1000,
		WarmMillis:    float64(warm.Microseconds()) / 1000,
		MasksRestored: masks,
		PlansRestored: plans,
	}
}

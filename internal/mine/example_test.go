package mine_test

import (
	"fmt"

	"repro/internal/accesslog"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/mine"
	"repro/internal/query"
)

// ExampleRun is the administrator's workflow of §3: instead of
// hand-writing explanation templates, mine the frequent ones from six days
// of log data, review them (here: print the length-2 ones with their
// support), adopt them, and measure how much of the seventh day they
// explain.
func ExampleRun() {
	ds := ehr.Generate(ehr.Tiny())
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())

	// Split the week: train on days 1-6, audit day 7.
	full := ds.Log()
	trainLog := accesslog.FilterDays(full, 0, 5)
	testLog := accesslog.FilterDays(full, 6, 6)

	// Infer collaborative groups from the training window and install them.
	auditor := core.NewAuditor(ds.DB, graph, core.WithNamer(ds))
	auditor.BuildGroups(core.GroupsOptions{TrainLog: trainLog})

	// Mine templates over the training window's first accesses (§5.3.3).
	miningDB := accesslog.WithLog(ds.DB, trainLog)
	mev := query.NewEvaluatorWithLog(miningDB, accesslog.FirstAccesses(trainLog))
	opt := mine.DefaultOptions()
	opt.MaxLength = 4
	res, err := mine.Run(mine.AlgoBridge(2), mev, graph, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mined %d templates from %d training accesses (%d support queries, %d cache hits, %d skipped)\n",
		len(res.Templates), trainLog.NumRows(),
		res.Stats.SupportQueries, res.Stats.CacheHits, res.Stats.Skipped)

	// The review pass re-evaluates each candidate's support; preparing the
	// path reuses the plan the miner already compiled and cached.
	fmt.Println("administrator review — the length-2 candidates:")
	for _, p := range res.Templates {
		if p.Length() == 2 {
			fmt.Printf("  support %4d  %s\n", mev.Prepare(p).Support(), p.String())
		}
	}

	// Adopt every mined template (a real deployment would filter here) and
	// audit day 7 against the historical database; repeat access
	// complements the mined set (day-7 repeats of training-window pairs).
	// Each template sets the bits of the rows it explains in one mask, so
	// the mask ends up the union.
	tev := query.NewEvaluatorWithLog(accesslog.WithLog(ds.DB, trainLog), testLog)
	n := testLog.NumRows()
	explained := bitset.New(n)
	for i, p := range res.Templates {
		explain.NewPathTemplate(fmt.Sprintf("mined-%d", i), p, "").EvaluateRange(tev, 0, n, explained)
	}
	explain.RepeatAccess().EvaluateRange(tev, 0, n, explained)
	fmt.Printf("mined templates + repeat access explain %.1f%% of day-7 accesses\n",
		100*float64(explained.Count())/float64(n))
	// Output:
	// mined 168 templates from 1838 training accesses (339 support queries, 11 cache hits, 282 skipped)
	// administrator review — the length-2 candidates:
	//   support   83  L.Patient = Appointments1.Patient AND Appointments1.Doctor =[UserMapping]= L.User
	//   support   77  L.Patient = Documents1.Patient AND Documents1.Author =[UserMapping]= L.User
	//   support   31  L.Patient = Labs1.Patient AND Labs1.OrderedBy = L.User
	//   support   25  L.Patient = Labs1.Patient AND Labs1.PerformedBy = L.User
	//   support  621  L.Patient = Log2.Patient AND Log2.User = L.User
	//   support   75  L.Patient = Medications1.Patient AND Medications1.AdministeredBy = L.User
	//   support   74  L.Patient = Medications1.Patient AND Medications1.RequestedBy = L.User
	//   support   77  L.Patient = Medications1.Patient AND Medications1.SignedBy = L.User
	//   support   20  L.Patient = Radiology1.Patient AND Radiology1.OrderedBy = L.User
	//   support   15  L.Patient = Radiology1.Patient AND Radiology1.ReadBy = L.User
	//   support    8  L.Patient = Visits1.Patient AND Visits1.Doctor =[UserMapping]= L.User
	// mined templates + repeat access explain 99.6% of day-7 accesses
}

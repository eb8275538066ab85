// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) over the synthetic CareWeb dataset. Each driver
// returns a typed result with a Render method that prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Protocol notes shared by the drivers:
//
//   - Collaborative groups are trained on the first six days of the log and
//     tested on the seventh (§5.3.2).
//   - Mining runs over the first accesses of the training days (§5.3.3).
//   - Predictive-power tests (Figures 12 and 14) audit the day-7 first
//     accesses mixed with an equal-size uniformly random fake log, while
//     path queries resolve Log self-joins against the historical
//     days-1-6 log (see query.NewEvaluatorWithLog).
package experiments

import (
	"repro/internal/accesslog"
	"repro/internal/ehr"
	"repro/internal/fakelog"
	"repro/internal/groups"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// Config parameterizes one experiment environment.
type Config struct {
	// EHR configures the synthetic hospital.
	EHR ehr.Config
	// TrainEndDay is the last day (0-based, inclusive) of the training
	// window; the following day is the test day. Defaults to Days-2, giving
	// the paper's 6-day train / day-7 test split.
	TrainEndDay int
	// GroupMaxDepth bounds the collaborative-group hierarchy.
	GroupMaxDepth int
	// Mining holds the mining options (support, M, T, optimizations).
	Mining mine.Options
	// FakeSeed seeds the fake-log generator.
	FakeSeed int64
}

// Default returns the configuration used by the benchmark harness: the Small
// hospital with the paper's mining parameters.
func Default() Config {
	c := Config{
		EHR:           ehr.Small(),
		GroupMaxDepth: 8,
		Mining:        mine.DefaultOptions(),
		FakeSeed:      42,
	}
	c.TrainEndDay = c.EHR.Days - 2
	return c
}

// Tiny returns a unit-test-sized configuration.
func Tiny() Config {
	c := Default()
	c.EHR = ehr.Tiny()
	c.TrainEndDay = c.EHR.Days - 2
	c.Mining.MaxLength = 4
	return c
}

// Env is the prepared state shared by the experiment drivers.
type Env struct {
	Cfg Config
	DS  *ehr.Dataset

	// FullLog is the whole simulated week; TrainLog covers days
	// 0..TrainEndDay; TestLog is the following day.
	FullLog  *relation.Table
	TrainLog *relation.Table
	TestLog  *relation.Table

	// FirstAll marks, per FullLog row, whether it is the first access by its
	// (user, patient) pair.
	FirstAll []bool

	// Hierarchy is trained on TrainLog.
	Hierarchy *groups.Hierarchy

	// users and patients are the sampling populations for the fake log.
	users    []relation.Value
	patients []relation.Value
}

// Prepare generates the dataset, trains the group hierarchy on the training
// window, and installs the full-hierarchy Groups table into the dataset's
// database.
func Prepare(cfg Config) *Env {
	// The training window must end at least one day before the simulation
	// does, so a test day exists.
	if cfg.TrainEndDay <= 0 || cfg.TrainEndDay >= cfg.EHR.Days-1 {
		cfg.TrainEndDay = cfg.EHR.Days - 2
	}
	if cfg.GroupMaxDepth <= 0 {
		cfg.GroupMaxDepth = 8
	}
	ds := ehr.Generate(cfg.EHR)
	full := ds.Log()
	env := &Env{
		Cfg:      cfg,
		DS:       ds,
		FullLog:  full,
		TrainLog: accesslog.FilterDays(full, 0, cfg.TrainEndDay),
		TestLog:  accesslog.FilterDays(full, cfg.TrainEndDay+1, cfg.TrainEndDay+1),
		FirstAll: accesslog.FirstAccessRows(full),
	}

	ug := groups.BuildUserGraph(env.TrainLog)
	env.Hierarchy = groups.BuildHierarchy(ug, cfg.GroupMaxDepth)
	ds.DB.AddTable(env.Hierarchy.Table(ehr.TableGroups))

	for _, u := range ds.Users {
		env.users = append(env.users, relation.Int(u.AuditID))
	}
	for _, p := range ds.Patients {
		env.patients = append(env.patients, relation.Int(p.ID))
	}
	return env
}

// TestDayFirstAccesses returns the day-7 accesses whose (user, patient) pair
// appears for the first time in the whole week — the paper's day-7 first
// accesses.
func (e *Env) TestDayFirstAccesses() *relation.Table {
	di, _ := e.FullLog.ColumnIndex(pathmodel.LogDateColumn)
	testDay := int64(e.Cfg.TrainEndDay + 1)
	return e.FullLog.Filter(pathmodel.LogTable, func(r int) bool {
		return e.FirstAll[r] && e.FullLog.Int(r, di) == testDay
	})
}

// FakeFor generates a fake log matching real's size and dates.
func (e *Env) FakeFor(real *relation.Table) *relation.Table {
	return fakelog.Generate(real, e.users, e.patients, e.Cfg.FakeSeed, int64(e.FullLog.NumRows())+1)
}

// HistoricalDB returns a database whose Log table is the training window,
// with Groups replaced by the given table when non-nil. Event tables are
// shared with the dataset.
func (e *Env) HistoricalDB(groupsTable *relation.Table) *relation.Database {
	db := accesslog.WithLog(e.DS.DB, e.TrainLog)
	if groupsTable != nil {
		db.AddTable(groupsTable)
	}
	return db
}

// MiningDB returns the database used for mining: Log is the training window,
// Groups is the full trained hierarchy, and the audited log is the training
// window's first accesses.
func (e *Env) MiningDB() (*relation.Database, *relation.Table) {
	db := accesslog.WithLog(e.DS.DB, e.TrainLog)
	return db, accesslog.FirstAccesses(e.TrainLog)
}

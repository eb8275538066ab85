// Package fakelog generates the synthetic "fake" access log of §5.3.2: the
// same number of accesses as a real log, with each access pairing a user and
// a patient drawn uniformly at random from the database's populations.
// Because real user-patient density is very low, fake accesses almost never
// coincide with genuine clinical relationships, so the fraction of fake
// accesses a template explains measures its false-positive rate.
package fakelog

import (
	"math/rand"

	"repro/internal/accesslog"
	"repro/internal/pathmodel"
	"repro/internal/relation"
)

// Generate returns a fake log with the same number of rows and the same
// date distribution as real. Users and patients are sampled uniformly from
// the provided id sets. Lids continue from lidBase+1 so a combined log keeps
// distinct ids.
func Generate(real *relation.Table, users, patients []relation.Value, seed, lidBase int64) *relation.Table {
	if len(users) == 0 || len(patients) == 0 {
		panic("fakelog: empty user or patient population")
	}
	rng := rand.New(rand.NewSource(seed))
	di, _ := real.ColumnIndex(pathmodel.LogDateColumn)

	out := accesslog.NewLogTable("FakeLog")
	for r := 0; r < real.NumRows(); r++ {
		date := real.Cell(r, di)
		u := users[rng.Intn(len(users))]
		p := patients[rng.Intn(len(patients))]
		out.Append(relation.Int(lidBase+int64(r)+1), date, u, p)
	}
	return out
}

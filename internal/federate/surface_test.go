package federate_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/pathmodel"
)

// TestSurfaceErrorsComeOut runs every operation of the shared audit surface
// on a single engine and on a K=2 Split federation through one table, with
// warm masks: a cancelled context must come back as ctx.Err(), and an armed
// core.mask.ensure fault as the injected error, from every operation the
// condition reaches. No operation may answer with a nil or zero result and
// a nil error — the shape a failed audit used to share with "nothing
// unexplained".
func TestSurfaceErrorsComeOut(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds, single := singleEngine(t, 1)
	fed := splitFederation(t, ds, 2, nil)
	patient := ds.Log().Get(0, pathmodel.LogPatientColumn)

	// Each op reports whether its result was the nil/zero value.
	type op struct {
		name string
		// usesMasks: the core.mask.ensure seam is on the op's path.
		usesMasks bool
		run       func(ctx context.Context, e surface) (zero bool, err error)
	}
	ops := []op{
		{"StreamNDJSON", true, func(ctx context.Context, e surface) (bool, error) {
			n := 0
			err := e.StreamNDJSON(ctx, 2, func(_ []byte, rows, _ int) error { n += rows; return nil })
			return n == 0, err
		}},
		{"Unexplained", true, func(ctx context.Context, e surface) (bool, error) {
			rows, err := e.Unexplained(ctx, 2)
			return rows == nil, err
		}},
		{"ExplainedFraction", true, func(ctx context.Context, e surface) (bool, error) {
			frac, err := e.ExplainedFraction(ctx, 2)
			return frac == 0, err
		}},
		{"PatientReport", true, func(_ context.Context, e surface) (bool, error) {
			reps, err := e.PatientReport(patient, 1)
			return reps == nil, err
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	engines := []struct {
		name string
		e    surface
	}{{"single", single}, {"split-2", fed}}

	for _, eng := range engines {
		mustNDJSON(t, eng.e, 2) // warm every mask first
		for _, o := range ops {
			// A healthy call answers with a non-zero result.
			if zero, err := o.run(context.Background(), eng.e); err != nil || zero {
				t.Fatalf("%s %s: healthy call = (zero %v, %v)", eng.name, o.name, zero, err)
			}
			// PatientReport takes no context.
			if o.name != "PatientReport" {
				zero, err := o.run(cancelled, eng.e)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s %s, cancelled ctx: err = %v, want context.Canceled", eng.name, o.name, err)
				}
				if !zero {
					t.Errorf("%s %s, cancelled ctx: returned a result beside the error", eng.name, o.name)
				}
			}
			if !o.usesMasks {
				continue
			}
			fault.Reset()
			fault.Install(fault.Permanent("core.mask.ensure"))
			zero, err := o.run(context.Background(), eng.e)
			fault.Reset()
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s %s, armed core.mask.ensure: err = %v, want the injected error", eng.name, o.name, err)
			}
			if !zero {
				t.Errorf("%s %s, armed core.mask.ensure: returned a result beside the error", eng.name, o.name)
			}
		}
	}
}

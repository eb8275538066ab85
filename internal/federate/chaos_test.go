package federate_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/query"
)

// chaosPolicy is the retry policy the chaos suite runs under: enough
// attempts to outlast every transient schedule below, with millisecond
// backoffs so the suite stays fast.
func chaosPolicy(seed int64) federate.Policy {
	return federate.Policy{
		Retry: federate.RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Seed:        uint64(seed),
		},
	}
}

// assertReportsEqual compares two report slices field for field.
func assertReportsEqual(t *testing.T, label string, got, want []core.AccessReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for r := range want {
		if !reflect.DeepEqual(got[r], want[r]) {
			t.Fatalf("%s: report %d differs:\n got %+v\nwant %+v", label, r, got[r], want[r])
		}
	}
}

// TestChaosTransientByteIdentical is the tentpole differential under
// transient faults: across 3 seeds × K∈{2,4} × j∈{1,4}, with error,
// panic, and delay injectors armed at the stream, per-row, and mask seams
// on transient schedules, a federation with retries enabled must produce
// reports byte-identical to the unfaulted single engine — and the
// aggregate surfaces (unexplained rows, explained fraction, support) must
// agree exactly as well, with their own seams injected.
func TestChaosTransientByteIdentical(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		ds, single := singleEngine(t, seed)
		want := mustReports(t, single, 4)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty single-engine audit", seed)
		}
		wantUnexplained := mustUnexplained(t, single, 4)
		wantFraction := mustFraction(t, single, 4)

		for _, k := range []int{2, 4} {
			f := splitFederation(t, ds, k, nil)
			f.SetPolicy(chaosPolicy(seed))
			for _, j := range []int{1, 4} {
				fault.Reset()
				fault.Default.SetSeed(uint64(seed))
				fault.Install(
					// Stream start: shard0 fails twice then heals; shard1
					// panics once (retryably) on its second call.
					fault.Transient("federate.shard0.stream", 2),
					fault.Rule{Site: "federate.shard1.stream", Kind: fault.KindPanic,
						After: 1, Count: 1,
						Err: fault.Retryable(errors.New("injected panic"))},
					// Per-row: shard1 fails its 6th and 7th row calls; every
					// shard's 50th row call stalls briefly.
					fault.Rule{Site: "federate.shard1.stream.row", After: 5, Count: 2,
						Err: fault.Retryable(errors.New("injected row fault"))},
					fault.Rule{Site: "federate.*.stream.row", Kind: fault.KindDelay,
						Delay: 200 * time.Microsecond, After: 49, Count: 1},
					// Mask computation: the first ensure call across the
					// federation fails once.
					fault.Transient("core.mask.ensure", 1),
					// Aggregate seams, for the calls below.
					fault.Transient("federate.shard0.unexplained", 1),
					fault.Transient("federate.shard1.support", 1),
				)

				label := fmt.Sprintf("seed %d k=%d j=%d", seed, k, j)
				got := mustReports(t, f, j)
				assertReportsEqual(t, label+" reports", got, want)
				if d := f.LastDegraded(); !d.IsZero() {
					t.Fatalf("%s: transient faults left a degraded annotation: %+v", label, d)
				}

				gotUnexplained, err := f.Unexplained(ctx, j)
				if err != nil {
					t.Fatalf("%s: Unexplained: %v", label, err)
				}
				if !reflect.DeepEqual(gotUnexplained, wantUnexplained) {
					t.Fatalf("%s: unexplained rows differ: got %v want %v", label, gotUnexplained, wantUnexplained)
				}
				gotFraction, err := f.ExplainedFraction(ctx, j)
				if err != nil {
					t.Fatalf("%s: ExplainedFraction: %v", label, err)
				}
				if gotFraction != wantFraction {
					t.Fatalf("%s: fraction %v, want %v", label, gotFraction, wantFraction)
				}
				if fault.Default.Injected() == 0 {
					t.Fatalf("%s: no fault fired — the chaos schedule never hit a seam", label)
				}
				for i, st := range f.ShardStates() {
					if st != federate.Healthy {
						t.Fatalf("%s: shard %d ended %v, want healthy after recovery", label, i, st)
					}
				}
			}
		}
	}
}

// TestChaosSupportTransient drives the support seam: an injected transient
// fault on one shard's support call must retry into the exact federated
// sum.
func TestChaosSupportTransient(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetPolicy(chaosPolicy(1))

	ev := query.NewEvaluator(ds.DB)
	for _, tpl := range []*explain.PathTemplate{
		explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment"),
		explain.GroupTemplate("appt-same-group", "Appointments", "an appointment"),
	} {
		want := ev.Support(tpl.Path)
		fault.Reset()
		fault.Install(fault.Transient("federate.shard0.support", 1))
		got, err := f.Support(ctx, tpl.Path)
		if err != nil {
			t.Fatalf("Support(%s): %v", tpl.Name(), err)
		}
		if got != want {
			t.Fatalf("Support(%s) = %d, want %d", tpl.Name(), got, want)
		}
		if fault.Default.Injected() == 0 {
			t.Fatalf("Support(%s): support seam never fired", tpl.Name())
		}
	}
}

// TestChaosHangTimeoutRetry pins the timeout path: a shard stream that
// hangs once converts — via the per-attempt call deadline — into a
// retryable timeout, and the retry produces byte-identical output.
func TestChaosHangTimeoutRetry(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds, single := singleEngine(t, 1)
	want := mustReports(t, single, 4)

	f := splitFederation(t, ds, 2, nil)
	pol := chaosPolicy(1)
	// The per-attempt deadline bounds the whole shard stream, so it must
	// comfortably cover a genuine (healed) attempt — including under
	// -race — while still converting the hung first attempt into a
	// retryable timeout.
	pol.CallTimeout = 2 * time.Second
	f.SetPolicy(pol)

	fault.Install(fault.Rule{Site: "federate.shard1.stream", Kind: fault.KindHang, Count: 1})
	start := time.Now()
	got := mustReports(t, f, 4)
	assertReportsEqual(t, "hang+timeout", got, want)
	if el := time.Since(start); el < 2*time.Second {
		t.Errorf("audit finished in %v — the hang never engaged the timeout", el)
	}
	if fault.Default.Injected() == 0 {
		t.Error("hang injector never fired")
	}
}

// TestChaosPermanentStrictFailFast pins strict mode: a permanently failing
// shard aborts the batch surface with an error matching ErrShardDown (and
// no partial result), and the shard is marked Down.
func TestChaosPermanentStrictFailFast(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetPolicy(chaosPolicy(1))

	// A prefix glob arms every shard1 seam: the stream, its rows, and the
	// aggregate calls all fail permanently — the shard is simply gone.
	fault.Install(fault.Permanent("federate.shard1.*"))
	err := f.StreamReports(ctx, 4, func(core.AccessReport) error { return nil })
	if !errors.Is(err, federate.ErrShardDown) {
		t.Fatalf("strict StreamReports error = %v, want ErrShardDown", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("shard-down error lost the injected cause: %v", err)
	}
	if _, err := f.Unexplained(ctx, 4); !errors.Is(err, federate.ErrShardDown) {
		t.Errorf("strict Unexplained error = %v, want ErrShardDown", err)
	}
	health := f.ShardStates()
	if health[1] != federate.Down {
		t.Errorf("failing shard state = %v, want down", health[1])
	}
	if health[0] == federate.Down {
		t.Errorf("healthy shard marked down")
	}
	if d := f.LastDegraded(); !d.IsZero() {
		t.Errorf("strict mode recorded a degraded annotation: %+v", d)
	}
}

// TestChaosPermanentDegraded is the degraded-mode differential: with one
// shard permanently down from its first stream call, degraded mode must
// return exactly the oracle restricted to the surviving shards — for
// reports, unexplained rows, and the fraction — with the Degraded
// annotation accounting for every skipped row. Healing the fault then
// restores full, annotation-free results (Down → Probing → Healthy).
func TestChaosPermanentDegraded(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		ds, single := singleEngine(t, seed)
		want := mustReports(t, single, 4)
		wantUnexplained := mustUnexplained(t, single, 4)
		for _, k := range []int{2, 4} {
			f := splitFederation(t, ds, k, nil)
			f.SetPolicy(chaosPolicy(seed))
			f.SetDegradedMode(true)

			// Restrict the oracle to rows outside shard0, the run of the
			// merged log's first downRows rows.
			_, downRows := shardStart(t, f, "shard0")
			if downRows == 0 || downRows == len(want) {
				t.Fatalf("seed %d k=%d: shard0 audits %d of %d rows: the fixture exercises nothing", seed, k, downRows, len(want))
			}
			wantSurvive := want[downRows:]
			var wantUnexpSurvive []int
			for _, g := range wantUnexplained {
				if g >= downRows {
					wantUnexpSurvive = append(wantUnexpSurvive, g)
				}
			}

			fault.Reset()
			fault.Install(fault.Permanent("federate.shard0.stream"))

			got := mustReports(t, f, 4)
			assertReportsEqual(t, "degraded reports", got, wantSurvive)
			d := f.LastDegraded()
			if len(d.MissingShards) != 1 || d.MissingShards[0] != "shard0" {
				t.Fatalf("seed %d k=%d: MissingShards = %v, want [shard0]", seed, k, d.MissingShards)
			}
			if d.RowsSkipped != downRows {
				t.Fatalf("seed %d k=%d: RowsSkipped = %d, want %d", seed, k, d.RowsSkipped, downRows)
			}

			fault.Reset()
			fault.Install(fault.Permanent("federate.shard0.unexplained"))
			gotUnexp, err := f.Unexplained(ctx, 4)
			if err != nil {
				t.Fatalf("seed %d k=%d: degraded Unexplained: %v", seed, k, err)
			}
			if !reflect.DeepEqual(gotUnexp, wantUnexpSurvive) {
				t.Fatalf("seed %d k=%d: degraded unexplained = %v, want %v", seed, k, gotUnexp, wantUnexpSurvive)
			}
			frac, err := f.ExplainedFraction(ctx, 4)
			if err != nil {
				t.Fatalf("seed %d k=%d: degraded ExplainedFraction: %v", seed, k, err)
			}
			surviveTotal := len(wantSurvive)
			wantFrac := 0.0
			if surviveTotal > 0 {
				wantFrac = float64(surviveTotal-len(wantUnexpSurvive)) / float64(surviveTotal)
			}
			if frac != wantFrac {
				t.Fatalf("seed %d k=%d: degraded fraction = %v, want %v", seed, k, frac, wantFrac)
			}
			if d := f.LastDegraded(); d.RowsSkipped != downRows {
				t.Fatalf("seed %d k=%d: aggregate RowsSkipped = %d, want %d", seed, k, d.RowsSkipped, downRows)
			}

			// Heal: the next call probes the down shard and full results
			// return, with no annotation left behind.
			fault.Reset()
			got = mustReports(t, f, 4)
			assertReportsEqual(t, "healed reports", got, want)
			if d := f.LastDegraded(); !d.IsZero() {
				t.Fatalf("seed %d k=%d: healed run still annotated: %+v", seed, k, d)
			}
			for i, st := range f.ShardStates() {
				if st != federate.Healthy {
					t.Fatalf("seed %d k=%d: shard %d ended %v after healing", seed, k, i, st)
				}
			}
		}
	}
}

// TestChaosMidStreamDegraded pins the partial-shard accounting: a shard
// that dies after emitting part of its stream leaves exactly its emitted
// prefix in the degraded result, and RowsSkipped counts exactly the rows
// it never delivered.
func TestChaosMidStreamDegraded(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds, single := singleEngine(t, 2)
	want := mustReports(t, single, 4)

	const k = 2
	const prefix = 7 // shard0 row calls that succeed before the permanent fault
	f := splitFederation(t, ds, k, nil)
	f.SetPolicy(chaosPolicy(2))
	f.SetDegradedMode(true)

	fault.Install(fault.Rule{Site: "federate.shard0.stream.row", After: prefix,
		Err: errors.New("injected permanent row fault")})

	got := mustReports(t, f, 4)
	// Expected: shard0's first `prefix` rows, then all shard1 rows (shard0
	// is the run of the merged log's first rows0 rows).
	_, rows0 := shardStart(t, f, "shard0")
	if rows0 <= prefix {
		t.Fatalf("shard0 audits %d rows, the fault after row %d never fires", rows0, prefix)
	}
	wantPartial := append(append([]core.AccessReport{}, want[:prefix]...), want[rows0:]...)
	skipped := rows0 - prefix
	assertReportsEqual(t, "mid-stream degraded", got, wantPartial)
	d := f.LastDegraded()
	if len(d.MissingShards) != 1 || d.MissingShards[0] != "shard0" || d.RowsSkipped != skipped {
		t.Fatalf("Degraded = %+v, want shard0 with %d rows skipped", d, skipped)
	}
}

// TestChaosRetryExhaustion pins that a transient fault outlasting the
// budget still downs the shard: 5 scheduled failures against a 3-attempt
// budget must surface ErrShardDown in strict mode, and the error must
// stay inspectable down to the injected cause.
func TestChaosRetryExhaustion(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetPolicy(federate.Policy{Retry: federate.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}})

	fault.Install(fault.Transient("federate.shard0.stream", 5))
	err := f.StreamReports(ctx, 2, func(core.AccessReport) error { return nil })
	if !errors.Is(err, federate.ErrShardDown) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("exhausted retries: err = %v, want ErrShardDown wrapping the injected fault", err)
	}
	if got := fault.Default.Injected(); got != 3 {
		t.Errorf("injector fired %d times, want exactly the 3-attempt budget", got)
	}
}

// inOrderFederation is a 4-way TimeRanges Split of the Tiny hospital, whose
// shards stream one after another, with the chaos retry policy, plus the
// single engine's NDJSON stream as lines.
func inOrderFederation(t *testing.T, seed int64) (*federate.Federation, [][]byte) {
	t.Helper()
	ds, single := singleEngine(t, seed)
	want, _, _, err := collectNDJSON(t, single, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := splitFederation(t, ds, 4, nil)
	f.SetPolicy(chaosPolicy(seed))
	return f, bytes.SplitAfter(want, []byte("\n"))[:f.Log().NumRows()]
}

// shardStart returns the merged-log row at which the named shard's run
// starts, and the run's length, from the shards' row counts.
func shardStart(t *testing.T, f *federate.Federation, name string) (start, rows int) {
	t.Helper()
	for _, in := range f.ShardInfos() {
		if in.Name == name {
			return start, in.Rows
		}
		start += in.Rows
	}
	t.Fatalf("no shard %s", name)
	return 0, 0
}

// TestChaosInOrderNDJSONTransient arms a transient row fault in the middle
// of shard2's NDJSON stream, at a row that is not a chunk
// boundary: the retry resumes past the whole chunks already delivered and
// the output stays byte-identical to the single engine.
func TestChaosInOrderNDJSONTransient(t *testing.T) {
	t.Cleanup(fault.Reset)
	const after = 100 // not a multiple of the 64-row core chunk
	for _, seed := range []int64{1, 2} {
		f, want := inOrderFederation(t, seed)
		if _, rows := shardStart(t, f, "shard2"); rows <= after {
			t.Fatalf("seed %d: shard2 audits %d rows, the fault at row %d never fires", seed, rows, after+1)
		}
		for _, j := range []int{1, 4} {
			fault.Reset()
			fault.Install(fault.Rule{Site: "federate.shard2.stream.row", After: after, Count: 1,
				Err: fault.Retryable(errors.New("injected row fault"))})
			got, _, _, err := collectNDJSON(t, f, j)
			label := fmt.Sprintf("seed %d j=%d", seed, j)
			if err != nil {
				t.Fatalf("%s: StreamNDJSON: %v", label, err)
			}
			if !bytes.Equal(got, bytes.Join(want, nil)) {
				t.Fatalf("%s: retried stream (%d bytes) differs from the single engine (%d bytes)",
					label, len(got), len(bytes.Join(want, nil)))
			}
			if fault.Default.Injected() != 1 {
				t.Fatalf("%s: row fault fired %d times, want 1", label, fault.Default.Injected())
			}
			if d := f.LastDegraded(); !d.IsZero() {
				t.Fatalf("%s: transient fault left a degraded annotation: %+v", label, d)
			}
		}
	}
}

// TestChaosInOrderNDJSONMidStreamDegraded downs shard1 permanently in the
// middle of its NDJSON stream in degraded mode: the output is the
// single engine's stream minus exactly RowsSkipped lines of shard1 — the
// tail after the whole chunks it delivered before the fault — and the
// later shards still stream.
func TestChaosInOrderNDJSONMidStreamDegraded(t *testing.T) {
	t.Cleanup(fault.Reset)
	const after = 100
	f, want := inOrderFederation(t, 2)
	f.SetDegradedMode(true)
	start, rows := shardStart(t, f, "shard1")
	if rows <= after {
		t.Fatalf("shard1 audits %d rows, the fault at row %d never fires", rows, after+1)
	}
	fault.Install(fault.Rule{Site: "federate.shard1.stream.row", After: after,
		Err: errors.New("injected permanent row fault")})

	got, gotRows, _, err := collectNDJSON(t, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := f.LastDegraded()
	if len(d.MissingShards) != 1 || d.MissingShards[0] != "shard1" {
		t.Fatalf("Degraded = %+v, want shard1 missing", d)
	}
	delivered := rows - d.RowsSkipped
	if delivered < 0 || delivered > after || delivered%64 != 0 {
		t.Fatalf("shard1 delivered %d of %d rows before the fault at row %d, want whole 64-row chunks", delivered, rows, after+1)
	}
	wantLines := append(append([][]byte{}, want[:start+delivered]...), want[start+rows:]...)
	if !bytes.Equal(got, bytes.Join(wantLines, nil)) || gotRows != len(wantLines) {
		t.Fatalf("degraded stream has %d lines (%d bytes), want the single engine minus %d shard1 lines: %d lines",
			gotRows, len(got), d.RowsSkipped, len(wantLines))
	}
}

// TestChaosInOrderNDJSONCancel cancels from inside emit while the shards
// stream one after another: the stream returns context.Canceled, no chunk reaches emit after
// the cancelling one, and what emit saw is whole chunks forming a prefix
// of the full stream. No shard is held responsible for the cancellation.
func TestChaosInOrderNDJSONCancel(t *testing.T) {
	t.Cleanup(fault.Reset)
	f, want := inOrderFederation(t, 1)
	full := bytes.Join(want, nil)
	for _, cancelAt := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var got []byte
		chunks := 0
		err := f.StreamNDJSON(ctx, 4, func(buf []byte, rows, _ int) error {
			if rows <= 0 || bytes.Count(buf, []byte("\n")) != rows {
				t.Fatalf("chunk of %d bytes is not %d whole lines", len(buf), rows)
			}
			got = append(got, buf...)
			if chunks++; chunks == cancelAt {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at chunk %d: StreamNDJSON returned %v, want context.Canceled", cancelAt, err)
		}
		if chunks != cancelAt || !bytes.HasPrefix(full, got) || len(got) >= len(full) {
			t.Fatalf("cancel at chunk %d: emit saw %d chunks, %d of %d bytes (prefix: %v)",
				cancelAt, chunks, len(got), len(full), bytes.HasPrefix(full, got))
		}
		for i, st := range f.ShardStates() {
			if st != federate.Healthy {
				t.Fatalf("cancel at chunk %d: shard %d ended %v; a cancellation is not the shard's failure", cancelAt, i, st)
			}
		}
	}
}

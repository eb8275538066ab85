package federate_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/federate"
)

// chaosRetries is the retry budget the chaos suite runs under: enough
// attempts to outlast every transient schedule below.
const chaosRetries = 4

// TestChaosTransientByteIdentical is the tentpole differential under
// transient faults: across 3 seeds × K∈{2,4} × j∈{1,4}, with error,
// panic, and delay injectors armed at the stream, per-row, and mask seams
// on transient schedules, a federation with retries enabled must produce
// NDJSON byte-identical to the unfaulted single engine — and the
// aggregate surfaces (unexplained rows, explained fraction) must agree
// exactly as well, with their own seam injected.
func TestChaosTransientByteIdentical(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		ds, single := singleEngine(t, seed)
		want := mustNDJSON(t, single, 4)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty single-engine audit", seed)
		}
		wantUnexplained := mustUnexplained(t, single, 4)
		wantFraction := mustFraction(t, single, 4)

		for _, k := range []int{2, 4} {
			f := splitFederation(t, ds, k, nil)
			f.SetRetries(chaosRetries)
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
					// Aggregate seam, for the calls below.
					fault.Transient("federate.shard0.unexplained", 1),
				)

				label := fmt.Sprintf("seed %d k=%d j=%d", seed, k, j)
				assertSameNDJSON(t, label+" stream", mustNDJSON(t, f, j), want)

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

// TestChaosPermanentStrictFailFast pins strict mode: a permanently failing
// shard aborts the batch surface with an error matching ErrShardDown (and
// no partial result), and the shard is marked Down. Healing the fault then
// restores full results (Down → Probing → Healthy).
func TestChaosPermanentStrictFailFast(t *testing.T) {
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	ds, single := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetRetries(chaosRetries)

	// A prefix glob arms every shard1 seam: the stream, its rows, and the
	// aggregate calls all fail permanently — the shard is simply gone.
	fault.Install(fault.Permanent("federate.shard1.*"))
	_, _, _, err := collectNDJSON(t, f, 4)
	if !errors.Is(err, federate.ErrShardDown) {
		t.Fatalf("strict StreamNDJSON error = %v, want ErrShardDown", err)
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

	// Heal: the next call probes the down shard and full results return.
	fault.Reset()
	assertSameNDJSON(t, "healed stream", mustNDJSON(t, f, 4), mustNDJSON(t, single, 4))
	for i, st := range f.ShardStates() {
		if st != federate.Healthy {
			t.Fatalf("shard %d ended %v after healing", i, st)
		}
	}
}

// TestChaosRetryExhaustion pins that a transient fault outlasting the
// budget still downs the shard: 5 scheduled failures against a 3-attempt
// budget must surface ErrShardDown in strict mode, and the error must
// stay inspectable down to the injected cause.
func TestChaosRetryExhaustion(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetRetries(2)

	fault.Install(fault.Transient("federate.shard0.stream", 5))
	_, _, _, err := collectNDJSON(t, f, 2)
	if !errors.Is(err, federate.ErrShardDown) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("exhausted retries: err = %v, want ErrShardDown wrapping the injected fault", err)
	}
	if got := fault.Default.Injected(); got != 3 {
		t.Errorf("injector fired %d times, want exactly the 3-attempt budget", got)
	}
}

// inOrderFederation is a 4-way TimeRanges Split of the Tiny hospital, whose
// shards stream one after another, with the chaos retry budget, plus the
// single engine's NDJSON stream as lines.
func inOrderFederation(t *testing.T, seed int64) (*federate.Federation, [][]byte) {
	t.Helper()
	ds, single := singleEngine(t, seed)
	want, _, _, err := collectNDJSON(t, single, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := splitFederation(t, ds, 4, nil)
	f.SetRetries(chaosRetries)
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
		}
	}
}

// TestChaosInOrderNDJSONMidStreamStrict downs shard1 permanently in the
// middle of its NDJSON stream: the stream fails with ErrShardDown, and emit
// has seen exactly a prefix of the single engine's stream — every earlier
// shard's lines, then the whole 64-row chunks shard1 delivered before the
// fault — and nothing of the later shards.
func TestChaosInOrderNDJSONMidStreamStrict(t *testing.T) {
	t.Cleanup(fault.Reset)
	const after = 100
	f, want := inOrderFederation(t, 2)
	start, rows := shardStart(t, f, "shard1")
	if rows <= after {
		t.Fatalf("shard1 audits %d rows, the fault at row %d never fires", rows, after+1)
	}
	fault.Install(fault.Rule{Site: "federate.shard1.stream.row", After: after,
		Err: errors.New("injected permanent row fault")})

	got, gotRows, _, err := collectNDJSON(t, f, 4)
	if !errors.Is(err, federate.ErrShardDown) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("StreamNDJSON error = %v, want ErrShardDown wrapping the injected fault", err)
	}
	delivered := gotRows - start
	if delivered < 0 || delivered > after || delivered%64 != 0 {
		t.Fatalf("shard1 delivered %d of %d rows before the fault at row %d, want whole 64-row chunks", delivered, rows, after+1)
	}
	if !bytes.Equal(got, bytes.Join(want[:gotRows], nil)) {
		t.Fatalf("failed stream's %d lines (%d bytes) are not a prefix of the single engine's stream", gotRows, len(got))
	}
}

// TestChaosCancelledMidBackoff cancels the caller's context while a shard
// call sleeps between retries: the call returns promptly, well before the
// remaining backoff would have elapsed, with the last attempt's failure,
// and the shard is not declared down for it.
func TestChaosCancelledMidBackoff(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds, _ := singleEngine(t, 1)
	f := splitFederation(t, ds, 2, nil)
	f.SetRetries(50) // up to 50 backoffs capped at 250ms: ≈ 10s uncancelled
	fault.Install(fault.Transient("federate.shard0.stream", 1000))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := f.StreamNDJSON(ctx, 2, func([]byte, int, int) error { return nil })
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("retry loop slept %v through a cancellation; want prompt abort", el)
	}
	// The deadline almost always strikes mid-backoff, and the error then
	// carries it too; one that strikes during an attempt returns the
	// attempt's error as it is.
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("StreamNDJSON error = %v, want the injected fault", err)
	}
	if errors.Is(err, federate.ErrShardDown) {
		t.Errorf("a cancelled retry declared the shard down: %v", err)
	}
	if fault.Default.Injected() < 2 {
		t.Errorf("injector fired %d times: the call never reached a backoff", fault.Default.Injected())
	}
	if st := f.ShardStates()[0]; st == federate.Down {
		t.Errorf("shard0 ended %v after a cancelled call", st)
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

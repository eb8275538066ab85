package federate

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Resilience metrics live in the process-wide obs.Default registry, like
// the parallel pool's: handles resolved once at init, one atomic add per
// event.
var (
	// federate.retry.attempts counts shard-call attempts (first tries
	// included).
	retryAttempts = obs.Default.Counter("federate.retry.attempts")

	// federate.retry.retries counts attempts beyond the first — how often
	// a backoff actually fired.
	retryRetries = obs.Default.Counter("federate.retry.retries")

	// federate.retry.exhausted counts shard calls that failed for good
	// (budget spent or a permanent error) and were declared down.
	retryExhausted = obs.Default.Counter("federate.retry.exhausted")

	// federate.retry.backoff_nanos is the jittered delay slept before each
	// retry.
	retryBackoffNanos = obs.Default.Histogram("federate.retry.backoff_nanos")

	// federate.health.transitions counts shard health-state changes.
	healthTransitions = obs.Default.Counter("federate.health.transitions")

	// federate.health.down gauges how many shards are currently Down or
	// Probing across live federations.
	healthDown = obs.Default.Gauge("federate.health.down")

	// federate.health.panics counts panics recovered at the shard-call
	// containment boundary.
	healthPanics = obs.Default.Counter("federate.health.panics")
)

// ErrShardDown marks a shard call that failed for good: its retry budget
// is spent or its error was permanent. It fails the whole call
// (errors.Is(err, ErrShardDown)): a federation answers over every shard or
// not at all.
var ErrShardDown = errors.New("federate: shard down")

// The retry backoff is capped-jittered-exponential between these bounds
// (see fault.Backoff), its jitter seeded per shard by fnvSeed(shard name),
// so retry timing is reproducible per shard.
const (
	retryBase = 5 * time.Millisecond
	retryCap  = 250 * time.Millisecond
)

// SetRetries sets the retry budget of every shard call: up to n retries
// beyond the first attempt for retryable failures (n below 0 counts as 0,
// the default). Like the other configuration methods it requires exclusive
// access relative to the audit surface.
func (f *Federation) SetRetries(n int) { f.retries = max(n, 0) }

// HealthState is a shard's position in the health state machine:
//
//	Healthy --retryable failure--> Suspect --budget exhausted--> Down
//	Down --next call--> Probing --success--> Healthy (or back to Down)
//
// States are advisory bookkeeping, visible through the federate.health.*
// metrics; calls are always attempted regardless of state (a Down shard's
// next call probes it), so a healed shard recovers without any external
// reset.
type HealthState int32

const (
	Healthy HealthState = iota
	Suspect
	Down
	Probing
)

// String names the state for displays and metrics labels.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(s))
	}
}

// setHealth transitions sh to state, maintaining the transition counter
// and the down gauge.
func (f *Federation) setHealth(sh *shard, state HealthState) {
	old := HealthState(sh.health.Swap(int32(state)))
	if old == state {
		return
	}
	healthTransitions.Add(1)
	wasDown := old == Down || old == Probing
	isDown := state == Down || state == Probing
	if isDown && !wasDown {
		healthDown.Add(1)
	} else if wasDown && !isDown {
		healthDown.Add(-1)
	}
}

// seam names one of a shard's fault-injection sites,
// "federate.<shard><suffix>".
type seam int

const (
	seamStream seam = iota // a shard stream's start (each attempt)
	// seamRow fires once per row a shard stream emits, in row order: per
	// row of an encoded chunk, before StreamNDJSON hands the chunk on.
	seamRow
	seamUnexplained // Unexplained and ExplainedFraction
	seamReport      // PatientReport
	numSeams
)

var seamSuffix = [numSeams]string{".stream", ".stream.row", ".unexplained", ".report"}

// initResilience finishes construction: shards start Healthy and carry
// precomputed injection-site names so the hot paths never build strings.
func (f *Federation) initResilience() {
	for _, sh := range f.shards {
		for s, suffix := range seamSuffix {
			sh.sites[s] = "federate." + sh.name + suffix
		}
	}
}

// inject consults the fault registry at one of the shard's seams; disabled,
// it costs one atomic load.
func (sh *shard) inject(ctx context.Context, s seam) error {
	if !fault.Enabled() {
		return nil
	}
	return fault.InjectCtx(ctx, sh.sites[s])
}

// eachShard is the one aggregation loop of the federated surface: it runs
// op on every shard in shard order, each call behind the shard's fault seam
// s and the retry budget (callShard). The first failure aborts the loop and
// is returned. A failed attempt may be retried, so op must commit its
// shard's contribution only when it returns nil — or, for a stream that
// hands rows on as it goes, track them and skip them on the next attempt
// (StreamNDJSON).
func (f *Federation) eachShard(ctx context.Context, s seam, op func(sh *shard) error) error {
	for _, sh := range f.shards {
		err := f.callShard(ctx, sh, func() error {
			if err := sh.inject(ctx, s); err != nil {
				return err
			}
			return op(sh)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// downstreamError marks an error that originated downstream of the shard
// (the consumer's fn or emit failing): the retry loop
// must neither retry it nor hold it against the shard's health, and the
// caller should see the original error, not a shard-down wrapper.
type downstreamError struct{ err error }

func (e *downstreamError) Error() string { return e.err.Error() }

// Unwrap exposes the downstream error.
func (e *downstreamError) Unwrap() error { return e.err }

// callShard runs op against sh under the retry budget:
// capped-jittered-exponential-backoff retries for retryable failures, panic
// containment, and the health state machine. op must respect ctx's
// cancellation. A nil return means some attempt succeeded; a returned
// error is either the caller's cancellation, a downstream error unwrapped
// (op wraps consumer failures in downstreamError), or an ErrShardDown
// wrapper around the final attempt's failure.
func (f *Federation) callShard(ctx context.Context, sh *shard, op func() error) error {
	if HealthState(sh.health.Load()) == Down {
		// A down shard's next call is its probe: state says so, and a
		// success below flips it back to Healthy.
		f.setHealth(sh, Probing)
	}
	bo := &fault.Backoff{Base: retryBase, Cap: retryCap, Seed: fnvSeed(sh.name)}
	attempts := f.retries + 1
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				return cerr
			}
			return fmt.Errorf("%w; retry aborted: %w", err, cerr)
		}
		retryAttempts.Add(1)
		if attempt > 0 {
			retryRetries.Add(1)
		}
		err = runAttempt(op)
		if err == nil {
			f.setHealth(sh, Healthy)
			return nil
		}
		var de *downstreamError
		if errors.As(err, &de) {
			// Not the shard's fault: hand the consumer's error back
			// untouched and leave health alone.
			return de.err
		}
		if ctx.Err() != nil {
			return err
		}
		if !fault.IsRetryable(err) {
			break
		}
		f.setHealth(sh, Suspect)
		if attempt == attempts-1 {
			break
		}
		d := bo.Next()
		retryBackoffNanos.Observe(int64(d))
		if serr := fault.SleepCtx(ctx, d); serr != nil {
			return fmt.Errorf("%w; retry aborted: %w", err, serr)
		}
	}
	f.setHealth(sh, Down)
	retryExhausted.Add(1)
	return fmt.Errorf("%w: %s after %d attempt(s): %w", ErrShardDown, sh.name, attempts, err)
}

// runAttempt executes one attempt of op, containing panics into errors
// (injected panics stay retryable; genuine ones are permanent).
func runAttempt(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			healthPanics.Add(1)
			if fault.IsInjectedPanic(r) {
				// The injected panic value is an error carrying its own
				// retryability marker; keep the chain inspectable.
				err = fmt.Errorf("federate: recovered injected panic: %w", r.(error))
			} else {
				err = fmt.Errorf("federate: recovered shard panic: %v", r)
			}
		}
	}()
	return op()
}

// fnvSeed hashes a shard name into its backoff jitter seed, so shards
// jitter independently.
func fnvSeed(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

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

	// federate.degraded.runs counts batch calls that completed degraded
	// (at least one shard's rows missing from the result).
	degradedRuns = obs.Default.Counter("federate.degraded.runs")

	// federate.degraded.rows_skipped counts merged-log rows omitted from
	// degraded results.
	degradedRows = obs.Default.Counter("federate.degraded.rows_skipped")
)

// ErrShardDown marks a shard call that failed for good: its retry budget
// is spent or its error was permanent. In strict mode it propagates to the
// caller (errors.Is(err, ErrShardDown)); in degraded mode the federation
// absorbs it and records the shard in the call's Degraded annotation.
var ErrShardDown = errors.New("federate: shard down")

// RetryPolicy bounds the per-shard-call retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per shard call (first try
	// included); values below 1 mean one attempt, i.e. no retries.
	MaxAttempts int
	// BaseDelay is the backoff floor (default 5ms) and MaxDelay its cap
	// (default 250ms); delays are capped-jittered-exponential between
	// them (see fault.Backoff).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter sequence; each shard derives its own stream
	// from it, so retry timing is reproducible per shard.
	Seed uint64
}

// Policy is a federation's resilience configuration. The zero value is
// today's strict behavior exactly: one attempt, no timeout, fail fast.
type Policy struct {
	// CallTimeout bounds each shard-call attempt with a context deadline;
	// zero means no deadline. A deadline expiry is mapped to the
	// retryable fault.ErrTimeout, so hung shards convert into retries
	// (and eventually ErrShardDown) instead of hung audits.
	CallTimeout time.Duration
	Retry       RetryPolicy
}

func (p Policy) attempts() int {
	if p.Retry.MaxAttempts < 1 {
		return 1
	}
	return p.Retry.MaxAttempts
}

func (p Policy) retryBase() time.Duration {
	if p.Retry.BaseDelay > 0 {
		return p.Retry.BaseDelay
	}
	return 5 * time.Millisecond
}

func (p Policy) retryCap() time.Duration {
	if p.Retry.MaxDelay > 0 {
		return p.Retry.MaxDelay
	}
	return 250 * time.Millisecond
}

// SetPolicy installs the resilience policy. Like the other configuration
// methods it requires exclusive access relative to the audit surface.
func (f *Federation) SetPolicy(p Policy) {
	f.polMu.Lock()
	f.pol = p
	f.polMu.Unlock()
}

// Policy returns the current resilience policy.
func (f *Federation) Policy() Policy {
	f.polMu.RLock()
	defer f.polMu.RUnlock()
	return f.pol
}

// SetDegradedMode switches the batch surface between strict mode (the
// default: any shard failure aborts the call, fail-fast and exact) and
// degraded mode, where calls return partial results over the surviving
// shards and record what is missing in LastDegraded. Configuration-level
// exclusivity applies.
func (f *Federation) SetDegradedMode(on bool) { f.degraded.Store(on) }

// DegradedMode reports whether degraded mode is on.
func (f *Federation) DegradedMode() bool { return f.degraded.Load() }

// Degraded is the machine-readable annotation of a partial result:
// which shards contributed nothing (or stopped mid-stream) and how many
// merged-log rows the result is missing. The zero value means the result
// is complete.
type Degraded struct {
	MissingShards []string `json:"missingShards"`
	RowsSkipped   int      `json:"rowsSkipped"`
}

// IsZero reports a complete (non-degraded) result.
func (d Degraded) IsZero() bool { return len(d.MissingShards) == 0 && d.RowsSkipped == 0 }

// LastDegraded returns the Degraded annotation of the most recent
// completed aggregate call (StreamReports, StreamNDJSON, Unexplained,
// ExplainedFraction, Support, PatientReport). In strict mode, and after
// fully successful degraded-mode calls, it is zero. Concurrent calls
// overwrite it last-writer-wins; read it from the goroutine that made the
// call.
func (f *Federation) LastDegraded() Degraded {
	f.degMu.Lock()
	defer f.degMu.Unlock()
	return f.lastDeg
}

// setLastDegraded records d and bumps the degraded metrics when d is
// non-zero.
func (f *Federation) setLastDegraded(d Degraded) {
	f.degMu.Lock()
	f.lastDeg = d
	f.degMu.Unlock()
	if !d.IsZero() {
		degradedRuns.Add(1)
		degradedRows.Add(int64(d.RowsSkipped))
	}
}

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
	// report as StreamReports hands it on, and per row of an encoded chunk
	// as StreamNDJSON hands the chunk on.
	seamRow
	seamUnexplained // Unexplained and ExplainedFraction
	seamSupport     // Support
	seamReport      // PatientReport
	numSeams
)

var seamSuffix = [numSeams]string{".stream", ".stream.row", ".unexplained", ".support", ".report"}

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
// s and under the resilience policy (callShard). In strict mode the first
// failure aborts the loop and is returned; in degraded mode a shard that is
// down is skipped, with missing(shard) merged-log rows recorded in
// LastDegraded. A failed attempt may be retried, so op must commit its
// shard's contribution only when it returns nil — or, for a stream that
// hands rows on as it goes, track them and skip them on the next attempt
// (streamShards).
func (f *Federation) eachShard(ctx context.Context, s seam, missing func(*shard) int, op func(ctx context.Context, sh *shard) error) error {
	degradedOn := f.degraded.Load()
	var deg Degraded
	for _, sh := range f.shards {
		err := f.callShard(ctx, sh, func(actx context.Context) error {
			if err := sh.inject(actx, s); err != nil {
				return err
			}
			return op(actx, sh)
		})
		if err != nil {
			if degradedOn && errors.Is(err, ErrShardDown) {
				deg.MissingShards = append(deg.MissingShards, sh.name)
				deg.RowsSkipped += missing(sh)
				continue
			}
			f.setLastDegraded(Degraded{})
			return err
		}
	}
	f.setLastDegraded(deg)
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

// callShard runs op against sh under the federation's resilience policy:
// per-attempt context deadlines, capped-jittered-exponential-backoff
// retries for retryable failures, panic containment, and the health state
// machine. op receives the attempt context and must respect its
// cancellation. A nil return means some attempt succeeded; a returned
// error is either the caller's cancellation, a downstream error unwrapped
// (op wraps consumer failures in downstreamError), or an ErrShardDown
// wrapper around the final attempt's failure.
func (f *Federation) callShard(ctx context.Context, sh *shard, op func(ctx context.Context) error) error {
	pol := f.Policy()
	if HealthState(sh.health.Load()) == Down {
		// A down shard's next call is its probe: state says so, and a
		// success below flips it back to Healthy.
		f.setHealth(sh, Probing)
	}
	bo := &fault.Backoff{
		Base: pol.retryBase(),
		Cap:  pol.retryCap(),
		Seed: pol.Retry.Seed ^ fnvSeed(sh.name),
	}
	attempts := pol.attempts()
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
		err = f.runAttempt(ctx, pol, op)
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

// runAttempt executes one attempt of op under the policy's call timeout,
// containing panics into errors (injected panics stay retryable; genuine
// ones are permanent) and mapping a per-attempt deadline expiry to the
// retryable fault.ErrTimeout.
func (f *Federation) runAttempt(ctx context.Context, pol Policy, op func(context.Context) error) (err error) {
	actx := ctx
	cancel := func() {}
	if pol.CallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, pol.CallTimeout)
	}
	defer cancel()
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
	err = op(actx)
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("federate: shard call exceeded %v: %w", pol.CallTimeout, fault.ErrTimeout)
	}
	return err
}

// fnvSeed hashes a shard name into a backoff-seed perturbation, so shards
// sharing a policy seed still jitter independently.
func fnvSeed(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

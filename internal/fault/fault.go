// Package fault is a zero-dependency, deterministic fault-injection
// framework: named seams in the engine ("injection sites") consult a
// registry of rules before doing real work, and a rule that matches the
// site can return an error, sleep, or panic on a precise activation
// schedule ("skip the first After matched calls, then fire Count times,
// then heal"). Everything is seeded and counter-driven, so a chaos test
// replays the exact same fault sequence on every run — which is what lets
// the differential suites demand byte-identical output from a faulted
// pipeline with retries enabled.
//
// The package also owns the resilience vocabulary the rest of the engine
// shares: the ErrInjected sentinel, the Retryable marker and the
// IsRetryable predicate that retry loops use to separate transient faults
// (worth a backoff and another attempt) from permanent ones, and the
// capped-jittered-exponential Backoff (backoff.go).
//
// The no-fault fast path is one atomic load: a disabled registry makes
// Inject return nil before touching any rule state, so seams stay
// compiled into hot paths at negligible cost.
package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects the effect a rule has when it fires at a site.
type Kind int

const (
	// KindError makes Inject return the rule's error.
	KindError Kind = iota
	// KindDelay makes Inject sleep for the rule's Delay (bounded by the
	// context), then proceed normally.
	KindDelay
	// KindPanic makes Inject panic with the rule's error (or a default
	// injected error), exercising panic-containment seams.
	KindPanic
)

// String names the kind for messages and spec parsers.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule is one injector: it matches calls to a site (exactly, or by prefix
// when Site ends in "*") and fires on a deterministic schedule. The
// zero-valued schedule fires on every matched call forever; After skips
// the first After matched calls, and a positive Count heals the rule after
// it has fired Count times. "Shard 2, call 3, fail twice then heal" is
// Rule{Site: "federate.shard2.stream", After: 2, Count: 2, ...}.
type Rule struct {
	// Site is the seam the rule arms: an exact site name, or a prefix
	// glob ending in "*" ("federate.*" arms every federation seam).
	Site string
	// Kind is the effect; the zero value is KindError.
	Kind Kind
	// Err is the error injected by KindError and the panic value of
	// KindPanic. Nil defaults to a permanent (non-retryable) injected
	// error; wrap with Retryable to model a transient fault.
	Err error
	// Delay is how long KindDelay sleeps.
	Delay time.Duration
	// After is how many matched calls pass through before the rule starts
	// firing.
	After int
	// Count is how many times the rule fires before healing; zero or
	// negative means it never heals.
	Count int
	// Prob, when in (0, 1), makes each scheduled firing a seeded coin
	// flip instead of a certainty. Zero and values >= 1 fire always. The
	// coin sequence is deterministic per rule under the registry seed.
	Prob float64
}

// activeRule is an installed rule plus its live schedule state.
type activeRule struct {
	Rule
	calls atomic.Int64 // matched calls, 1-based
	fired atomic.Int64

	coinMu sync.Mutex
	coin   uint64 // splitmix64 state for Prob
}

// matches reports whether the rule arms site.
func (ar *activeRule) matches(site string) bool {
	if strings.HasSuffix(ar.Site, "*") {
		return strings.HasPrefix(site, ar.Site[:len(ar.Site)-1])
	}
	return ar.Site == site
}

// flip draws the rule's next deterministic coin in [0, 1).
func (ar *activeRule) flip() float64 {
	ar.coinMu.Lock()
	v := splitmix64(&ar.coin)
	ar.coinMu.Unlock()
	return float64(v>>11) / (1 << 53)
}

// Registry holds installed rules and the enabled flag seams consult.
// Installing any rule enables the registry; Reset disables it and removes
// every rule. All methods are safe for concurrent use.
type Registry struct {
	enabled  atomic.Bool
	injected atomic.Int64

	mu    sync.Mutex
	rules atomic.Pointer[[]*activeRule]
	seed  uint64
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry the engine's built-in seams use,
// mirroring obs.Default. Tests that install rules into it must Reset it
// when done (t.Cleanup(fault.Reset)).
var Default = NewRegistry()

// SetSeed fixes the seed deriving every rule's coin sequence. Call it
// before Install; it does not reseed already-installed rules.
func (r *Registry) SetSeed(seed uint64) {
	r.mu.Lock()
	r.seed = seed
	r.mu.Unlock()
}

// Install arms rules (appending to any already installed) and enables the
// registry.
func (r *Registry) Install(rules ...Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var next []*activeRule
	if cur := r.rules.Load(); cur != nil {
		next = append(next, *cur...)
	}
	for i, rule := range rules {
		ar := &activeRule{Rule: rule}
		// Seed each rule's coin from the registry seed, its site, and its
		// install position, so distinct rules draw distinct deterministic
		// sequences.
		ar.coin = r.seed ^ fnv64(rule.Site) ^ uint64(len(next)+i+1)*0x9e3779b97f4a7c15
		if ar.coin == 0 {
			ar.coin = 1
		}
		next = append(next, ar)
	}
	r.rules.Store(&next)
	r.enabled.Store(len(next) > 0)
}

// Reset removes every rule and disables the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.enabled.Store(false)
	r.rules.Store(nil)
	r.injected.Store(0)
	r.mu.Unlock()
}

// Enabled reports whether any rule is installed — the one-atomic-load
// guard hot paths use before building site names or calling Inject.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Injected returns how many faults the registry has fired since the last
// Reset; chaos tests assert it advanced to prove a seam was exercised.
func (r *Registry) Injected() int64 { return r.injected.Load() }

// Inject is the seam entry point: it evaluates the installed rules
// against site in install order and applies the first rule that fires.
// With no context available use context.Background().
func (r *Registry) Inject(ctx context.Context, site string) error {
	if !r.enabled.Load() {
		return nil
	}
	rules := r.rules.Load()
	if rules == nil {
		return nil
	}
	for _, ar := range *rules {
		if !ar.matches(site) {
			continue
		}
		n := ar.calls.Add(1)
		if n <= int64(ar.After) {
			continue
		}
		if ar.Count > 0 && n > int64(ar.After+ar.Count) {
			continue // healed
		}
		if ar.Prob > 0 && ar.Prob < 1 && ar.flip() >= ar.Prob {
			continue
		}
		ar.fired.Add(1)
		r.injected.Add(1)
		switch ar.Kind {
		case KindDelay:
			if err := SleepCtx(ctx, ar.Delay); err != nil {
				return &InjectedError{Site: site, Err: err}
			}
			return nil
		case KindPanic:
			panic(&InjectedError{Site: site, Err: ar.err()})
		default: // KindError
			return &InjectedError{Site: site, Err: ar.err()}
		}
	}
	return nil
}

// err resolves the rule's injected error, defaulting to a permanent one.
func (ar *activeRule) err() error {
	if ar.Err != nil {
		return ar.Err
	}
	return errors.New("injected fault")
}

// Enabled reports whether the Default registry has rules installed.
func Enabled() bool { return Default.Enabled() }

// Inject runs the Default registry's injectors at site with no context.
func Inject(site string) error { return Default.Inject(context.Background(), site) }

// InjectCtx runs the Default registry's injectors at site under ctx.
func InjectCtx(ctx context.Context, site string) error { return Default.Inject(ctx, site) }

// Install arms rules on the Default registry.
func Install(rules ...Rule) { Default.Install(rules...) }

// Reset clears the Default registry.
func Reset() { Default.Reset() }

// ErrInjected is the sentinel every injected fault matches via errors.Is,
// letting tests and containment seams tell injected failures from real
// ones.
var ErrInjected = errors.New("fault: injected")

// InjectedError is the concrete error (and panic value) produced by an
// injection, carrying the site for attribution. It matches ErrInjected
// via errors.Is and unwraps to the rule's error, so retryability markers
// on the rule flow through.
type InjectedError struct {
	Site string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected at %s: %v", e.Site, e.Err)
}

// Unwrap exposes the rule's underlying error.
func (e *InjectedError) Unwrap() error { return e.Err }

// Is matches the ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// IsInjectedPanic reports whether a recovered panic value came from a
// KindPanic injection — containment seams map those to retryable errors
// while treating genuine panics as permanent failures.
func IsInjectedPanic(v any) bool {
	err, ok := v.(error)
	return ok && errors.Is(err, ErrInjected)
}

// retryableError marks its wrapped error as transient.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }

// Unwrap exposes the marked error.
func (e *retryableError) Unwrap() error { return e.err }

// FaultRetryable is the marker method IsRetryable looks for via errors.As.
func (e *retryableError) FaultRetryable() bool { return true }

// Retryable marks err as transient: IsRetryable returns true for it and
// anything wrapping it. Retryable(nil) is nil.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable is the retryability predicate resilience loops share: true
// for errors marked with Retryable — and always false once the caller's own
// context is cancelled, so cancellation is never retried.
func IsRetryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	var m interface{ FaultRetryable() bool }
	return errors.As(err, &m) && m.FaultRetryable()
}

// Transient returns a rule that fails site's first n matched calls with a
// retryable injected error, then heals — the canonical "fail n times then
// recover" chaos schedule.
func Transient(site string, n int) Rule {
	return Rule{Site: site, Kind: KindError, Count: n,
		Err: Retryable(errors.New("injected transient fault"))}
}

// Permanent returns a rule that fails every matched call at site with a
// non-retryable injected error — the canonical "shard is gone" schedule.
func Permanent(site string) Rule {
	return Rule{Site: site, Kind: KindError, Err: errors.New("injected permanent fault")}
}

// splitmix64 advances state and returns the next value of the SplitMix64
// sequence — the same tiny deterministic generator the data generator
// family uses, avoiding any dependency on math/rand.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fnv64 hashes s with FNV-1a, for deriving per-site seeds.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

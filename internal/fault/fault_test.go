package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestScheduleAfterCountHeal pins the activation schedule: a rule with
// After=2, Count=2 passes the first two matched calls through, fails the
// next two, then heals forever.
func TestScheduleAfterCountHeal(t *testing.T) {
	r := NewRegistry()
	r.Install(Rule{Site: "seam", After: 2, Count: 2, Err: Retryable(errors.New("boom"))})
	ctx := context.Background()
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, r.Inject(ctx, "seam") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: injected=%v, want %v (sequence %v)", i+1, got[i], want[i], got)
		}
	}
	if n := r.Injected(); n != 2 {
		t.Errorf("Injected() = %d, want 2", n)
	}
}

// TestSiteGlob pins prefix-glob matching: "federate.*" arms every
// federation seam and nothing else.
func TestSiteGlob(t *testing.T) {
	r := NewRegistry()
	r.Install(Rule{Site: "federate.*"})
	ctx := context.Background()
	if err := r.Inject(ctx, "federate.shard0.stream"); err == nil {
		t.Error("glob did not match federate.shard0.stream")
	}
	if err := r.Inject(ctx, "store.segment.read"); err != nil {
		t.Errorf("glob matched store.segment.read: %v", err)
	}
}

// TestInjectedErrorIdentity pins the error taxonomy: injected errors match
// ErrInjected, unwrap to the rule's error, and carry its retryability.
func TestInjectedErrorIdentity(t *testing.T) {
	r := NewRegistry()
	base := errors.New("disk on fire")
	r.Install(Rule{Site: "a", Err: Retryable(base)}, Rule{Site: "b", Err: base})
	ctx := context.Background()

	err := r.Inject(ctx, "a")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(err, ErrInjected) = false for %v", err)
	}
	if !errors.Is(err, base) {
		t.Errorf("injected error does not unwrap to the rule error: %v", err)
	}
	if !IsRetryable(err) {
		t.Errorf("Retryable-marked injection not retryable: %v", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != "a" {
		t.Errorf("errors.As(InjectedError) site = %+v, want site a", ie)
	}
	if err := r.Inject(ctx, "b"); IsRetryable(err) {
		t.Errorf("unmarked injection is retryable: %v", err)
	}
}

// TestIsRetryable pins the predicate's table: only the Retryable marker
// makes an error retryable (a context deadline is not), and cancellation is
// never retryable even when wrapped in a retryable marker.
func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("x"), false},
		{"marked", Retryable(errors.New("x")), true},
		{"wrapped-marked", wrap(Retryable(errors.New("x"))), true},
		{"deadline", context.DeadlineExceeded, false},
		{"canceled", context.Canceled, false},
		{"marked-canceled", Retryable(context.Canceled), false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func wrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

// TestDisabledFastPath pins that an empty registry injects nothing and a
// Reset registry forgets its rules.
func TestDisabledFastPath(t *testing.T) {
	r := NewRegistry()
	ctx := context.Background()
	if r.Enabled() {
		t.Fatal("fresh registry enabled")
	}
	if err := r.Inject(ctx, "anything"); err != nil {
		t.Fatalf("disabled registry injected: %v", err)
	}
	r.Install(Permanent("anything"))
	if !r.Enabled() {
		t.Fatal("registry with rules not enabled")
	}
	r.Reset()
	if r.Enabled() || r.Inject(ctx, "anything") != nil {
		t.Fatal("Reset registry still arms rules")
	}
}

// TestPanicInjection pins that KindPanic panics with an identifiable
// injected value that IsInjectedPanic recognizes (and that genuine panic
// values are not mistaken for it).
func TestPanicInjection(t *testing.T) {
	r := NewRegistry()
	r.Install(Rule{Site: "seam", Kind: KindPanic, Err: Retryable(errors.New("boom"))})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = r.Inject(context.Background(), "seam")
	}()
	if recovered == nil {
		t.Fatal("KindPanic did not panic")
	}
	if !IsInjectedPanic(recovered) {
		t.Fatalf("IsInjectedPanic(%v) = false", recovered)
	}
	if IsInjectedPanic("index out of range") || IsInjectedPanic(errors.New("real")) {
		t.Error("IsInjectedPanic matched a non-injected value")
	}
	if err, ok := recovered.(error); !ok || !IsRetryable(err) {
		t.Errorf("injected panic value not retryable: %v", recovered)
	}
}

// TestDelayInjection pins that KindDelay stalls the call without failing
// it, and is cut short (into an error) by context cancellation.
func TestDelayInjection(t *testing.T) {
	r := NewRegistry()
	r.Install(Rule{Site: "seam", Kind: KindDelay, Delay: 15 * time.Millisecond})
	start := time.Now()
	if err := r.Inject(context.Background(), "seam"); err != nil {
		t.Fatalf("delay injection failed the call: %v", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("delay slept %v, want >= 15ms", el)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Inject(ctx, "seam"); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled delay returned %v, want Canceled", err)
	}
}

// TestProbDeterministic pins that probabilistic rules draw the same coin
// sequence under the same seed and a different one under another seed.
func TestProbDeterministic(t *testing.T) {
	draw := func(seed uint64) []bool {
		r := NewRegistry()
		r.SetSeed(seed)
		r.Install(Rule{Site: "seam", Prob: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, r.Inject(context.Background(), "seam") != nil)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed drew different coin sequences")
	}
	if same(a, c) {
		t.Error("different seeds drew identical coin sequences (64 draws)")
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("Prob=0.5 fired %d/%d times — coin looks broken", fired, len(a))
	}
}

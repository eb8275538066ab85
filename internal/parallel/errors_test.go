package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestMergeSourceErrorWrapped pins the error taxonomy on the merge: a
// failing source surfaces as a *SourceError carrying the source index,
// and errors.Is still reaches the underlying cause through the wrapper.
func TestMergeSourceErrorWrapped(t *testing.T) {
	boom := errors.New("boom")
	err := MergeStreams(2, func(a, b int) bool { return a < b },
		func(int) error { return nil },
		intSource([]int{0, 2, 4}),
		func(push func(int) error) error {
			if err := push(1); err != nil {
				return err
			}
			return fmt.Errorf("source gave up: %w", boom)
		},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is(err, boom) = false for %v", err)
	}
	var se *SourceError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SourceError", err)
	}
	if se.Source != 1 {
		t.Errorf("SourceError.Source = %d, want 1", se.Source)
	}
}

// TestMergeSourcePanicContained pins panic containment at the fan-in: a
// source that panics becomes a *PanicError return (the process survives),
// the other sources drain cleanly, and when the panic value is an error
// the chain stays inspectable through Unwrap.
func TestMergeSourcePanicContained(t *testing.T) {
	cause := errors.New("injected")
	err := MergeStreams(2, func(a, b int) bool { return a < b },
		func(int) error { return nil },
		intSource([]int{0, 2, 4, 6}),
		func(push func(int) error) error {
			if err := push(1); err != nil {
				return err
			}
			panic(cause)
		},
	)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("merge over a panicking source returned %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError captured no stack")
	}
	if !errors.Is(err, cause) {
		t.Errorf("panic value not reachable via errors.Is: %v", err)
	}
}

// TestMergeSourcePanicNonError pins that non-error panic values are still
// contained, with Unwrap simply yielding nothing.
func TestMergeSourcePanicNonError(t *testing.T) {
	err := MergeStreams(1, func(a, b int) bool { return a < b },
		func(int) error { return nil },
		func(push func(int) error) error { panic("slice bounds") },
	)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Unwrap() != nil {
		t.Errorf("Unwrap of a string panic = %v, want nil", pe.Unwrap())
	}
}

// TestOrderedChunksPanicOnCaller pins the pooled-path containment
// contract: a produce panic on a worker goroutine is re-raised on the
// calling goroutine with its original value after the pool drains, the
// same surface an inline produce presents.
func TestOrderedChunksPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cause := errors.New("produce blew up")
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = OrderedChunks(workers, 100, 5, 8, nil,
				func(w, lo, hi int) int {
					if lo >= 50 {
						panic(cause)
					}
					return lo
				},
				func(int) error { return nil },
			)
		}()
		if recovered == nil {
			t.Fatalf("workers=%d: produce panic was swallowed", workers)
		}
		if err, ok := recovered.(error); !ok || !errors.Is(err, cause) {
			t.Errorf("workers=%d: re-raised value %v is not the original panic", workers, recovered)
		}
	}
}

// TestOrderedChunksEmitPanicDrains pins that an emit panic on the calling
// goroutine stops and drains the pool before it is re-raised, so no worker
// is left blocked on the full reorder window.
func TestOrderedChunksEmitPanicDrains(t *testing.T) {
	cause := errors.New("emit blew up")
	before := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = OrderedChunks(4, 1000, 5, 4, nil,
			func(w, lo, hi int) int { return lo },
			func(lo int) error {
				if lo == 50 {
					// Let the workers fill the window and block on it.
					time.Sleep(10 * time.Millisecond)
					panic(cause)
				}
				return nil
			},
		)
	}()
	if err, ok := recovered.(error); !ok || !errors.Is(err, cause) {
		t.Fatalf("re-raised value %v, want the original emit panic", recovered)
	}
	// Exited workers may linger in the count for a moment; blocked ones
	// never leave it.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before: workers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForEachPanicOnCaller pins the same contract for ForEach: a body
// panic in a pool goroutine resurfaces once, on the caller.
func TestForEachPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cause := errors.New("body blew up")
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			ForEach(workers, 64, nil, func(w, i int) {
				if i == 17 {
					panic(cause)
				}
			})
		}()
		if recovered == nil {
			t.Fatalf("workers=%d: body panic was swallowed", workers)
		}
		if err, ok := recovered.(error); !ok || !errors.Is(err, cause) {
			t.Errorf("workers=%d: re-raised value %v is not the original panic", workers, recovered)
		}
	}
}

package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// OrderedChunks is the streaming counterpart of ForEach: it splits [0, n)
// into ceil(n/chunkSize) contiguous chunks, lets a pool of at most `workers`
// goroutines claim and produce chunks out of order (same atomic-counter
// claim loop as ForEach), and delivers the produced values to emit strictly
// in chunk order on the calling goroutine. At most `window` produced chunks
// are held in memory at once: a worker that runs ahead of the emitter by a
// full window blocks before producing, so peak buffering is bounded by
// window*chunkSize items no matter how large n is. That bound is what turns
// a full-log materialization into a streaming pipeline.
//
// Workers poll stop between claimed chunks and the emitter polls it between
// emitted chunks, so a cancelled run stops promptly mid-log instead of
// draining the remaining claims; in-flight produce calls still finish.
// When stop trips, OrderedChunks returns nil after the pool drains and the
// caller decides what the partial emission means (the batch engine maps it
// to ctx.Err()). If emit returns an error, no further chunks are emitted
// and that error is returned. produce must not retain the emitter's slot:
// the value it returns is dropped right after emit to keep the window's
// memory bound honest.
//
// With one worker (or one chunk) everything runs inline on the calling
// goroutine — produce then emit, chunk by chunk — preserving sequential
// semantics exactly.
//
// A produce call that panics never tears the pipeline: pooled workers
// recover the value, wake the emitter, drain the pool, and the panic is
// re-raised on the calling goroutine with its original value — the same
// place an inline produce would have panicked — so a resilience layer
// wrapping the call can contain it into an error. An emit panic likewise
// stops and drains the pool before it is re-raised, so no worker is left
// blocked on the reorder window.
func OrderedChunks[T any](workers, n, chunkSize, window int, stop func() bool, produce func(worker, lo, hi int) T, emit func(T) error) error {
	if n <= 0 {
		return nil
	}
	if chunkSize <= 0 {
		chunkSize = 1
	}
	chunks := (n + chunkSize - 1) / chunkSize
	if workers > chunks {
		workers = chunks
	}
	bounds := func(c int) (lo, hi int) {
		lo = c * chunkSize
		hi = lo + chunkSize
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	timed := obs.Enabled()
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			if stop != nil && stop() {
				return nil
			}
			lo, hi := bounds(c)
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			v := produce(0, lo, hi)
			if timed {
				poolBusyNanos.Observe(time.Since(t0).Nanoseconds())
			}
			poolItems.Add(1)
			if err := emit(v); err != nil {
				return err
			}
		}
		return nil
	}

	if window < 1 {
		window = 1
	}
	// A window smaller than the pool would leave workers permanently blocked
	// on the reorder buffer; clamp so every worker can have one chunk in
	// flight.
	if window < workers {
		window = workers
	}

	// Shared reorder state: a ring of `window` slots indexed by chunk number
	// mod window. base is the next chunk the emitter will hand to emit;
	// workers may only produce chunks in [base, base+window). done makes every
	// waiter give up after a stop trip or an emit error.
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		base     int
		slots    = make([]T, window)
		filled   = make([]bool, window)
		done     bool
		panicVal any // first recovered produce panic, re-raised on the caller
	)
	var zero T

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if stop != nil && stop() {
					mu.Lock()
					done = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				mu.Lock()
				if c >= base+window && !done {
					// The reorder window is full: this worker ran a whole
					// window ahead of the emitter and blocks until slots free.
					orderedStalls.Add(1)
				}
				for c >= base+window && !done {
					cond.Wait()
				}
				if done {
					mu.Unlock()
					return
				}
				mu.Unlock()

				lo, hi := bounds(c)
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				v, pv := contain(func() T { return produce(w, lo, hi) })
				if pv != nil {
					mu.Lock()
					if panicVal == nil {
						panicVal = pv
					}
					done = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				if timed {
					poolBusyNanos.Observe(time.Since(t0).Nanoseconds())
				}
				poolItems.Add(1)

				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				slots[c%window] = v
				filled[c%window] = true
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}

	var emitErr error
	for c := 0; c < chunks; c++ {
		mu.Lock()
		for !filled[c%window] && !done {
			cond.Wait()
		}
		if done {
			mu.Unlock()
			break
		}
		if timed {
			// Sample how much of the reorder window is resident at this
			// emission; the O(window) scan runs only when observability is on.
			occ := 0
			for _, f := range filled {
				if f {
					occ++
				}
			}
			orderedOccupancy.Observe(int64(occ))
		}
		v := slots[c%window]
		slots[c%window] = zero // release the chunk as soon as it is emitted
		filled[c%window] = false
		base = c + 1
		cond.Broadcast()
		mu.Unlock()

		err, pv := contain(func() error { return emit(v) })
		if err == nil && pv == nil && (stop == nil || !stop()) {
			continue
		}
		// Abort: an emit error, an emit panic (re-raised below once the
		// pool has drained), or a stop trip with a nil error — the caller
		// interprets the partial emission via its own context.
		emitErr = err
		mu.Lock()
		if pv != nil && panicVal == nil {
			panicVal = pv
		}
		done = true
		cond.Broadcast()
		mu.Unlock()
		break
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return emitErr
}

// contain runs fn, recovering any panic into pv so a pooled worker can
// hand the value back to the calling goroutine instead of crashing the
// process.
func contain[T any](fn func() T) (v T, pv any) {
	defer func() { pv = recover() }()
	return fn(), nil
}

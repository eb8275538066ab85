package parallel

import "errors"

// errMergeStopped is the error a push call returns once the merge has been
// torn down (emit error, or another source failing). Sources are expected to
// propagate it out of their streaming loop; MergeStreams recognizes and
// swallows it, so only real errors surface to the caller.
var errMergeStopped = errors.New("parallel: merge stopped")

// MergeStreams merges k ordered streams into one ordered emission: each
// source runs on its own goroutine and pushes its items in its own order;
// emit receives the globally smallest pending item (per less) on the calling
// goroutine, never concurrently with itself. It is the fan-in counterpart of
// OrderedChunks: where OrderedChunks re-sequences out-of-order chunks of one
// log, MergeStreams interleaves the already-ordered streams of several logs.
//
// It has no product caller: federate.Federation shards are runs of the
// merged log and stream one after another, so nothing is re-interleaved.
// It stays because the benchmark ledger (bench/engine.go) probes it for
// parallel.merge_streams_ns_per_item; deleting it waits on a benchmark
// change that drops that probe.
//
// Each source's in-flight items are bounded by buffer (minimum 1), so peak
// retention is O(k*buffer) items no matter how long the streams are. When
// every source's items are ascending under less and the sources are
// disjoint, the emission is exactly the sorted interleaving; ties between
// sources break toward the lower source index, deterministically.
//
// Error contract: if emit returns an error, the merge tears down (pending
// push calls return errMergeStopped, which sources should propagate) and
// that error is returned. If a source function returns a non-nil error other
// than the stop sentinel, the merge stops emitting no later than the point
// the failed stream's items are needed and returns that error wrapped in a
// *SourceError carrying the source index (errors.Is/As still reach the
// underlying cause); emit has then seen a clean merged prefix. A source
// that panics is contained the same way: its goroutine recovers the value
// into a *PanicError, the merge tears down cleanly, and the caller gets an
// error instead of a crashed process. A nil return means every source
// completed and every item was emitted.
func MergeStreams[T any](buffer int, less func(a, b T) bool, emit func(T) error, sources ...func(push func(T) error) error) error {
	if len(sources) == 0 {
		return nil
	}
	if buffer < 1 {
		buffer = 1
	}

	done := make(chan struct{})
	chans := make([]chan T, len(sources))
	errs := make([]error, len(sources)) // written before the channel closes, read after
	for i, src := range sources {
		chans[i] = make(chan T, buffer)
		go func(i int, src func(push func(T) error) error) {
			// Defers run LIFO: the recover (and errs[i] write) below happens
			// before the close, preserving the written-before-close contract.
			defer close(chans[i])
			defer func() {
				if r := recover(); r != nil {
					errs[i] = newPanicError(r)
				}
			}()
			push := func(v T) error {
				select {
				case chans[i] <- v:
					return nil
				case <-done:
					return errMergeStopped
				}
			}
			err := src(push)
			if err != nil && !errors.Is(err, errMergeStopped) {
				errs[i] = &SourceError{Source: i, Err: err}
			}
		}(i, src)
	}

	// stop tears the pipeline down and drains every source goroutine, so no
	// goroutine outlives the call and errs is safe to read afterward.
	stop := func() {
		close(done)
		for _, ch := range chans {
			for range ch { //nolint:revive // draining unblocks the producer
			}
		}
	}

	// heads holds the next pending item of each live source; a source leaves
	// the merge when its channel closes cleanly, and aborts it when its
	// channel closes with a recorded error. pull blocks for source i's next
	// item, reporting whether the stream is still live.
	heads := make([]T, len(sources))
	alive := make([]bool, len(sources))
	pull := func(i int) (bool, error) {
		var v T
		var ok bool
		select {
		case v, ok = <-chans[i]:
			// The source had an item (or a close) ready: no stall.
		default:
			// Empty channel: the merge is about to block on a slow source.
			mergeStalls.Add(1)
			v, ok = <-chans[i]
		}
		if ok {
			heads[i] = v
			return true, nil
		}
		return false, errs[i]
	}
	live := 0
	for i := range sources {
		ok, err := pull(i)
		if err != nil {
			stop()
			return err
		}
		alive[i] = ok
		if ok {
			live++
		}
	}

	for live > 0 {
		min := -1
		for i := range heads {
			if alive[i] && (min < 0 || less(heads[i], heads[min])) {
				min = i
			}
		}
		if err := emit(heads[min]); err != nil {
			stop()
			return err
		}
		mergeEmitted.Add(1)
		ok, err := pull(min)
		if err != nil {
			stop()
			return err
		}
		alive[min] = ok
		if !ok {
			live--
		}
	}
	close(done)
	return nil
}

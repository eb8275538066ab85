package core

import (
	"context"

	"repro/internal/parallel"
	"repro/internal/query"
)

// streamWindowPerWorker sizes the reorder window of the streaming pipeline:
// each worker may run this many chunks ahead of the emitter before blocking.
// Peak buffering is therefore workers*streamWindowPerWorker*batchChunk
// reports — a few thousand rows at most — independent of the log size, which
// is the whole point of streaming over materializing.
const streamWindowPerWorker = 4

// streamChunks fans produce out over batchChunk-row shards of the log and
// hands each chunk's value to emit in log order with bounded buffering. It is
// the shared scaffolding behind every streaming batch method; the caller's
// produce sees disjoint [lo, hi) row ranges and a stable worker id for
// per-worker state. Returns the emit error, or ctx.Err() if the run was
// cancelled (workers and the emitter poll the context between chunks, so
// cancellation takes effect promptly mid-log).
func streamChunks[T any](ctx context.Context, n, parallelism int, produce func(worker, lo, hi int) T, emit func(T) error) error {
	workers := normalizeParallelism(parallelism)
	window := workers * streamWindowPerWorker
	err := parallel.OrderedChunks(workers, n, batchChunk, window,
		func() bool { return ctx.Err() != nil }, produce, emit)
	if err != nil {
		return err
	}
	return ctx.Err()
}

// StreamReports builds the report for every log row and hands the reports to
// fn one at a time, in log-row order, exactly as a sequential
// ExplainRow(r, 0) loop would produce them (ExplainAll materializes this very
// stream, and the differential tests pin the two together). Work is sharded
// over a pool of parallelism workers (non-positive means GOMAXPROCS), each
// with its own evaluator cursor; completed shards are re-sequenced through a
// bounded window, so peak memory holds a few chunks of reports rather than
// the whole log — the property that lets hospital-scale logs be audited to
// an NDJSON sink or network stream without a full-log slice.
//
// fn runs on the calling goroutine, never concurrently with itself. If fn
// returns an error, the stream aborts and StreamReports returns that error;
// if ctx is cancelled mid-run, workers stop claiming shards promptly and
// StreamReports returns ctx.Err(). In both cases fn has seen a clean prefix
// of the log's reports. Template masks are computed first (concurrently, for
// the templates not already cached) and shared by every worker.
func (a *Auditor) StreamReports(ctx context.Context, parallelism int, fn func(AccessReport) error) error {
	masks, err := a.ensureMasks(ctx, parallelism)
	if err != nil {
		return err
	}

	n := a.ev.Log().NumRows()
	workers := normalizeParallelism(parallelism)
	cursors := make([]*query.Evaluator, workers)
	for w := range cursors {
		cursors[w] = a.ev.Clone()
	}
	return streamChunks(ctx, n, parallelism,
		func(w, lo, hi int) []AccessReport {
			chunk := make([]AccessReport, 0, hi-lo)
			for r := lo; r < hi; r++ {
				chunk = append(chunk, a.explainRowWith(cursors[w], masks, r, 0))
			}
			return chunk
		},
		func(chunk []AccessReport) error {
			for _, rep := range chunk {
				if err := fn(rep); err != nil {
					return err
				}
			}
			return nil
		})
}

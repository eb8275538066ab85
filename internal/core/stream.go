package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/parallel"
	"repro/internal/query"
)

// streamWindowPerWorker sizes the reorder window of the streaming pipeline:
// each worker may run this many chunks ahead of the emitter before blocking.
// Peak buffering is therefore workers*streamWindowPerWorker*batchChunk
// reports — a few thousand rows at most — independent of the log size, which
// is the whole point of streaming over materializing.
const streamWindowPerWorker = 4

// streamChunks is the scaffolding behind every streaming batch method: it
// fans produce out over batchChunk-row shards of the audited rows [lo, hi)
// — each call sees a disjoint row range and its worker's own evaluator
// cursor, to render rows with explainRowWith or appendRowNDJSON from the
// pass — and hands each chunk's value to emit in log order with bounded
// buffering. The cursors share the pass's instance memo, so a path template
// walks each (patient, user) pair once per pass however many rows repeat
// it; the texts are still rendered per row, from that row's own values.
// Returns the emit error, or ctx.Err() if the run was cancelled (workers
// and the emitter poll the context between chunks, so cancellation takes
// effect promptly mid-log).
func streamChunks[T any](ctx context.Context, a *Auditor, parallelism int, ps *Pass, lo, hi int, produce func(ev *query.Evaluator, ps *Pass, lo, hi int) T, emit func(T) error) error {
	if ps.a != a {
		return errors.New("core: a range stream needs a pass made by this auditor's NewPass")
	}
	if err := checkRange(lo, hi, ps.rows); err != nil {
		return err
	}
	workers := normalizeParallelism(parallelism)
	cursors := make([]*query.Evaluator, workers)
	for w := range cursors {
		cursors[w] = a.ev.CloneWithMemo(ps.memo)
	}
	err := parallel.OrderedChunks(workers, hi-lo, batchChunk, workers*streamWindowPerWorker,
		func() bool { return ctx.Err() != nil },
		func(w, clo, chi int) T {
			v := produce(cursors[w], ps, lo+clo, lo+chi)
			cursors[w].FlushStats() // one set of atomic adds per chunk, not per row
			return v
		},
		emit)
	if err != nil {
		return err
	}
	return ctx.Err()
}

// StreamReports builds the report for every log row and hands the reports to
// fn one at a time, in log-row order, exactly as a sequential
// ExplainRow(r, 0) loop would produce them (the differential tests pin the
// two together). Work is sharded over a pool of parallelism workers
// (non-positive means GOMAXPROCS), each with its own evaluator cursor;
// completed shards are re-sequenced through a bounded window, so peak memory
// holds a few chunks of reports rather than the whole log — the property
// that lets hospital-scale logs be audited to an NDJSON sink or network
// stream without a full-log slice.
//
// fn runs on the calling goroutine, never concurrently with itself. If fn
// returns an error, the stream aborts and StreamReports returns that error;
// if ctx is cancelled mid-run, workers stop claiming shards promptly and
// StreamReports returns ctx.Err(). In both cases fn has seen a clean prefix
// of the log's reports. Template masks are computed first (concurrently, for
// the templates not already cached) and shared by every worker.
func (a *Auditor) StreamReports(ctx context.Context, parallelism int, fn func(AccessReport) error) error {
	ps, err := a.NewPass(ctx, parallelism)
	if err != nil {
		return err
	}
	return streamChunks(ctx, a, parallelism, ps, 0, ps.rows,
		func(ev *query.Evaluator, ps *Pass, lo, hi int) []AccessReport {
			chunk := make([]AccessReport, 0, hi-lo)
			for r := lo; r < hi; r++ {
				chunk = append(chunk, a.explainRowWith(ev, ps, r, 0))
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

// ndjsonChunkBytes is the initial capacity of a recycled chunk buffer:
// room for a 64-row chunk of the catalog's reports (≈ 1.8 KB a row on the
// generated hospital) without growing.
const ndjsonChunkBytes = 128 << 10

// ndjsonBufs recycles chunk buffers from StreamNDJSON's emitter back to its
// workers, so a whole-log stream allocates about one buffer per reorder-
// window slot instead of one per chunk.
var ndjsonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, ndjsonChunkBytes)
	return &b
}}

// ndjsonChunk is one encoded chunk in flight from a worker to the emitter.
type ndjsonChunk struct {
	buf             *[]byte
	rows, explained int
}

// StreamNDJSON is StreamReports encoded: the same reports, in the same
// order, as NDJSON lines. Each worker appends its chunk of rows straight
// into one recycled buffer through the templates' NDJSON sink
// (appendRowNDJSON) — no report, explanation or text string is built — so
// encoding runs in parallel with rendering, and emit receives whole chunks:
// buf holds rows complete lines, explained of which are explained accesses.
// The concatenated bufs are byte-identical to encoding the StreamReports
// sequence with encoding/json.
//
// emit runs on the calling goroutine, never concurrently with itself, and
// must not retain buf after it returns: the buffer goes back to the workers.
// Errors and cancellation follow StreamReports; emit has then seen a clean
// prefix of whole chunks.
func (a *Auditor) StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error {
	ps, err := a.NewPass(ctx, parallelism)
	if err != nil {
		return err
	}
	return a.StreamNDJSONRange(ctx, parallelism, ps, 0, ps.rows, emit)
}

// StreamNDJSONRange is StreamNDJSON over the audited rows [lo, hi),
// rendered from ps (see NewPass): consecutive ranges streamed with one pass
// concatenate to exactly the bytes one StreamNDJSON over their union
// writes. Chunks start at lo.
func (a *Auditor) StreamNDJSONRange(ctx context.Context, parallelism int, ps *Pass, lo, hi int, emit func(buf []byte, rows, explained int) error) error {
	return streamChunks(ctx, a, parallelism, ps, lo, hi,
		func(ev *query.Evaluator, ps *Pass, lo, hi int) ndjsonChunk {
			bp := ndjsonBufs.Get().(*[]byte)
			buf, explained := (*bp)[:0], 0
			for r := lo; r < hi; r++ {
				var ok bool
				if buf, ok = a.appendRowNDJSON(buf, ev, ps, r); ok {
					explained++
				}
			}
			*bp = buf
			return ndjsonChunk{buf: bp, rows: hi - lo, explained: explained}
		},
		func(c ndjsonChunk) error {
			err := emit(*c.buf, c.rows, c.explained)
			ndjsonBufs.Put(c.buf)
			return err
		})
}

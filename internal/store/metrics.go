package store

import "repro/internal/obs"

// Store metrics live in the process-wide obs.Default registry (a store is
// opened before any engine exists, so there is no per-engine registry to
// hang them on). Handles are resolved once at package init; fsync latency —
// the only clock-reading metric — is additionally gated on obs.Enabled.
var (
	// store.bytes_written counts segment and manifest bytes written
	// (full segment writes, append records, manifest rewrites).
	bytesWritten = obs.Default.Counter("store.bytes_written")

	// store.bytes_read counts checksum-valid segment bytes consumed by
	// Open.
	bytesRead = obs.Default.Counter("store.bytes_read")

	// store.sync_nanos is the latency of each durable fsync on the append
	// path.
	syncNanos = obs.Default.Histogram("store.sync_nanos")

	// store.recoveries counts torn segment tails truncated away by Open —
	// each one is a crash the store recovered from.
	recoveries = obs.Default.Counter("store.recoveries")

	// store.appends counts AppendRows records made durable.
	appends = obs.Default.Counter("store.appends")
)

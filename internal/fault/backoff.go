package fault

import (
	"context"
	"time"
)

// Backoff produces capped-jittered-exponential retry delays: the nth
// Next call draws uniformly from [Base, min(Base<<n, Cap)], so delays
// always lie within [Base, Cap], grow exponentially in expectation, and —
// because the jitter source is seeded SplitMix64 — are bit-identical
// across runs with the same Seed. The zero value is usable (1ms base,
// which is also the floor for non-positive bases).
type Backoff struct {
	// Base is the lower bound of every delay and the ceiling of the
	// first; non-positive defaults to 1ms.
	Base time.Duration
	// Cap bounds every delay; values below Base clamp to Base.
	Cap time.Duration
	// Seed fixes the jitter sequence; zero is a valid seed.
	Seed uint64

	attempt int
	state   uint64
	seeded  bool
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	limit := b.Cap
	if limit < base {
		limit = base
	}
	ceil := limit
	if b.attempt < 62 {
		if c := base << uint(b.attempt); c > 0 && c < limit {
			ceil = c
		}
	}
	b.attempt++
	if !b.seeded {
		b.state = b.Seed
		if b.state == 0 {
			b.state = 0x9e3779b97f4a7c15
		}
		b.seeded = true
	}
	d := base
	if span := int64(ceil - base); span > 0 {
		d += time.Duration(splitmix64(&b.state) % uint64(span+1))
	}
	return d
}

// Reset rewinds the schedule to the first attempt (the jitter sequence
// continues rather than replaying).
func (b *Backoff) Reset() { b.attempt = 0 }

// SleepCtx sleeps for d or until ctx is done, whichever comes first,
// returning ctx's error if it cut the sleep short. Non-positive d returns
// immediately (with ctx's error if already done), so a cancelled retry
// loop never waits.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

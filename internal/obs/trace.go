package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// now is the tracer's clock, swapped by tests so golden span output is
// reproducible.
var now = time.Now

// active is the process-wide tracer StartSpan consults. A nil pointer —
// tracing disabled — makes StartSpan one atomic load returning the zero
// Span, whose methods are all no-ops.
var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer (nil disables tracing).
// The previous tracer, if any, is returned so a caller swapping tracers can
// still drain it.
func SetTracer(t *Tracer) *Tracer { return active.Swap(t) }

// StartSpan opens a root span on the active tracer. With no tracer
// installed it is one atomic load and returns the zero Span — no
// allocation, no clock read — so call sites need no enabled-check of their
// own.
func StartSpan(name string) Span {
	t := active.Load()
	if t == nil {
		return Span{}
	}
	return t.start(name, 0)
}

// Span is one in-flight traced operation. The zero Span is valid and inert:
// every method is a no-op, which is what the disabled fast path returns.
// A Span is used by one goroutine; concurrent children each get their own
// via Child.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []spanAttr
}

type spanAttr struct {
	key string
	val any
}

// Child opens a sub-span of s. On a zero Span it returns another zero Span.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.start(name, s.id)
}

// Annotate attaches a key/value attribute to the span, emitted with it at
// End. Values must be JSON-marshalable (strings, numbers, bools). It
// returns the span so annotations chain at the call site.
func (s Span) Annotate(key string, val any) Span {
	if s.tr == nil {
		return s
	}
	s.attrs = append(s.attrs, spanAttr{key: key, val: val})
	return s
}

// End closes the span and publishes it to the tracer's ring. On a zero Span
// it is a no-op. If the ring is full the span is dropped and counted —
// never blocked on.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	rec := spanRecord{
		Name:    s.name,
		ID:      s.id,
		Parent:  s.parent,
		StartNS: s.start.UnixNano(),
		DurNS:   now().Sub(s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.key] = a.val
		}
	}
	s.tr.publish(rec)
}

// spanRecord is the NDJSON wire form of one completed span. Attrs
// marshals with sorted keys (encoding/json's map ordering), so span lines
// are deterministic given deterministic attributes.
type spanRecord struct {
	Name    string         `json:"name"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// slot is one ring cell. seq is the Vyukov sequence coordinating producers
// and the consumer: a slot whose seq equals the claim position is free to
// write; seq = position+1 marks it published; the consumer recycles it by
// storing position+capacity.
type slot struct {
	seq atomic.Uint64
	rec spanRecord
}

// Tracer collects completed spans into a bounded multi-producer ring and
// drains them as NDJSON. Producers (span End calls, from any goroutine)
// never block: a full ring drops the span and counts the drop. Draining is
// single-consumer, serialized by an internal mutex.
type Tracer struct {
	mask    uint64
	slots   []slot
	head    atomic.Uint64
	dropped atomic.Int64
	nextID  atomic.Uint64

	drainMu sync.Mutex
	tail    uint64
}

// DefaultRingSize is the span capacity NewTracer rounds zero and negative
// requests up to.
const DefaultRingSize = 1 << 14

// NewTracer builds a tracer whose ring holds capacity spans, rounded up to
// a power of two (minimum 2; non-positive means DefaultRingSize).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	size := 2
	for size < capacity {
		size <<= 1
	}
	t := &Tracer{mask: uint64(size - 1), slots: make([]slot, size)}
	for i := range t.slots {
		t.slots[i].seq.Store(uint64(i))
	}
	return t
}

// start opens a span with a fresh id.
func (t *Tracer) start(name string, parent uint64) Span {
	return Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  now(),
	}
}

// publish enqueues rec, dropping it (and counting the drop) when the ring
// is full. The claim loop is the standard bounded-MPMC sequence protocol:
// CAS the head to claim a slot whose sequence says it is free, then publish
// by advancing the slot's sequence.
func (t *Tracer) publish(rec spanRecord) {
	for {
		pos := t.head.Load()
		s := &t.slots[pos&t.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if t.head.CompareAndSwap(pos, pos+1) {
				s.rec = rec
				s.seq.Store(pos + 1)
				return
			}
		case diff < 0:
			// The slot still holds an undrained span from the previous lap:
			// the ring is full. Never block a producer — drop and count.
			t.dropped.Add(1)
			return
		default:
			// Another producer claimed pos between our load and CAS; retry at
			// the new head.
		}
	}
}

// Dropped returns how many spans were discarded because the ring was full.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Drain writes every published span to w as NDJSON — one JSON object per
// line, in publication order — and recycles the ring slots. It returns the
// number of spans written. Concurrent Drain calls serialize; producers keep
// publishing while a drain runs and their spans are picked up by this or
// the next drain. Spans claimed but not yet published when the drain
// reaches them are left for the next drain (the ring is contiguous, so the
// drain stops at the first pending slot).
func (t *Tracer) Drain(w io.Writer) (int, error) {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	enc := json.NewEncoder(w)
	n := 0
	for {
		pos := t.tail
		s := &t.slots[pos&t.mask]
		seq := s.seq.Load()
		if int64(seq)-int64(pos+1) != 0 {
			return n, nil // empty, or the slot's producer has not published yet
		}
		rec := s.rec
		s.rec = spanRecord{} // release attr maps promptly
		s.seq.Store(pos + uint64(len(t.slots)))
		t.tail = pos + 1
		if err := enc.Encode(rec); err != nil {
			return n, err
		}
		n++
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval around a call into a layer's public function.
// Spans of one probe sequence share Trace; Parent is the enclosing span's
// id (0 for a root).
type span struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is driven from one
// goroutine (the probes are sequential from the benchmark's side), so the
// open-span stack needs no lock. With recording off it still times — the
// probes read their metric from the duration end returns — which is how the
// traced and untraced pipeline passes share one code path.
type tracer struct {
	recording bool
	t0        time.Time
	trace     int
	spans     []span
	open      []int // indexes into spans of the currently open spans
}

func newTracer() *tracer { return &tracer{recording: true, t0: time.Now()} }

// newTrace starts a fresh trace id for the next probe sequence.
func (t *tracer) newTrace() { t.trace++ }

// start opens a span and returns the function that closes it and reports
// its duration.
func (t *tracer) start(layer, name string) (end func() time.Duration) {
	begin := time.Now()
	if !t.recording {
		return func() time.Duration { return time.Since(begin) }
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].Span
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		Trace: t.trace, Span: idx + 1, Parent: parent,
		Layer: layer, Name: name, StartNS: begin.Sub(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, idx)
	return func() time.Duration {
		d := time.Since(begin)
		t.spans[idx].EndNS = t.spans[idx].StartNS + d.Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		return d
	}
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover, over the spans of one trace.
func selfTimes(spans []span, trace int) map[string]time.Duration {
	children := map[int]int64{}
	for _, s := range spans {
		if s.Trace == trace && s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Trace == trace {
			out[s.Layer] += time.Duration(s.EndNS - s.StartNS - children[s.Span])
		}
	}
	return out
}

// writeNDJSON writes the spans one JSON object per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

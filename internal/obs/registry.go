package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Callers resolve it
// once by name (Registry.Counter) and keep the pointer; Add is a single
// atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (a level, not a rate): resident
// entries, configured caps, window occupancy.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log₂ buckets a histogram carries: bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 is exactly zero). 64 buckets cover every non-negative int64.
const histBuckets = 64

// Histogram is a log₂-bucket histogram of non-negative values — latencies
// in nanoseconds, sizes in bytes. Observe is two atomic adds plus an atomic
// bucket increment; there are no locks and no allocation. Negative values
// are clamped to zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// MetricKind distinguishes the three metric types in a snapshot.
type MetricKind string

// Metric kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Bucket is one non-empty log₂ bucket of a histogram snapshot: Le is the
// bucket's inclusive upper bound (2^i - 1) and Count how many observations
// landed at or below the bound's power but above the previous bucket.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Metric is one metric's snapshot value. Counters and gauges carry Value;
// histograms carry Count, Sum, and their non-empty Buckets.
type Metric struct {
	Kind    MetricKind `json:"kind"`
	Value   int64      `json:"value,omitempty"`
	Count   int64      `json:"count,omitempty"`
	Sum     int64      `json:"sum,omitempty"`
	Buckets []Bucket   `json:"buckets,omitempty"`
}

// Registry is a named collection of metrics. Metrics are registered on
// first use (get-or-create by name) and live for the registry's life;
// lookup takes a short RWMutex critical section, so callers on hot paths
// resolve their metrics once and keep the pointers. All methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Registering
// the same name as two different metric types panics — that is a naming
// bug, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, KindCounter)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, KindGauge)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, KindHistogram)
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// checkFree panics if name is already registered as a different kind. Called
// with mu held.
func (r *Registry) checkFree(name string, want MetricKind) {
	for kind, taken := range map[MetricKind]bool{
		KindCounter:   r.counters[name] != nil,
		KindGauge:     r.gauges[name] != nil,
		KindHistogram: r.hists[name] != nil,
	} {
		if taken && kind != want {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, kind, want))
		}
	}
}

// Snapshot returns every registered metric's current value keyed by name.
// The snapshot is a point-in-time copy — concurrent updates during the
// snapshot may land in it or not, per metric — and the caller owns it.
func (r *Registry) Snapshot() map[string]Metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Metric, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = Metric{Kind: KindCounter, Value: c.Value()}
	}
	for name, g := range r.gauges {
		out[name] = Metric{Kind: KindGauge, Value: g.Value()}
	}
	for name, h := range r.hists {
		m := Metric{Kind: KindHistogram, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				m.Buckets = append(m.Buckets, Bucket{Le: bucketBound(i), Count: n})
			}
		}
		out[name] = m
	}
	return out
}

// bucketBound returns bucket i's inclusive upper bound: 0 for the zero
// bucket, 2^i - 1 otherwise.
func bucketBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64: the open-ended top bucket
	}
	return int64(1)<<i - 1
}

// Merge sums snapshots name-wise: counters and gauges add their values,
// histograms add counts, sums, and per-bound bucket counts. This is how a
// federation folds its engines' registries and the process-wide Default
// registry into one logical view. Gauges are summed too — a merged
// "resident entries" gauge is the federation total, which is the reading a
// display wants.
func Merge(snaps ...map[string]Metric) map[string]Metric {
	out := make(map[string]Metric)
	for _, snap := range snaps {
		for name, m := range snap {
			prev, ok := out[name]
			if !ok {
				// Copy the bucket slice: the merged snapshot must not alias
				// (or later mutate) a caller's.
				m.Buckets = append([]Bucket(nil), m.Buckets...)
				out[name] = m
				continue
			}
			prev.Value += m.Value
			prev.Count += m.Count
			prev.Sum += m.Sum
			prev.Buckets = mergeBuckets(prev.Buckets, m.Buckets)
			out[name] = prev
		}
	}
	return out
}

// mergeBuckets adds b's counts into a by bound, keeping bounds sorted.
func mergeBuckets(a, b []Bucket) []Bucket {
	for _, bb := range b {
		found := false
		for i := range a {
			if a[i].Le == bb.Le {
				a[i].Count += bb.Count
				found = true
				break
			}
		}
		if !found {
			a = append(a, bb)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Le < a[j].Le })
	return a
}

// SortedNames returns the snapshot's metric names in lexical order — the
// iteration order every text rendering uses, so output is deterministic.
func SortedNames(snap map[string]Metric) []string {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as one expvar-style JSON document: an
// object keyed by metric name (keys sorted by encoding/json), counters and
// gauges as bare numbers, histograms as {count, sum, buckets} objects. This
// is the /debug/vars payload.
func WriteJSON(w io.Writer, snap map[string]Metric) error {
	doc := make(map[string]any, len(snap))
	for name, m := range snap {
		if m.Kind == KindHistogram {
			doc[name] = map[string]any{"count": m.Count, "sum": m.Sum, "buckets": m.Buckets}
		} else {
			doc[name] = m.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, metric names with dots rewritten to underscores (Prometheus names
// admit no dots), histograms as cumulative _bucket series with le labels
// plus _sum and _count. This is the /metrics payload.
func WritePrometheus(w io.Writer, snap map[string]Metric) error {
	for _, name := range SortedNames(snap) {
		m := snap[name]
		pname := promName(name)
		var err error
		switch m.Kind {
		case KindHistogram:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", pname); err != nil {
				return err
			}
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pname, b.Le, cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				pname, m.Count, pname, m.Sum, pname, m.Count)
		case KindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pname, pname, m.Value)
		default:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pname, pname, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promName rewrites a layer.subsystem.name metric name into the Prometheus
// character set.
func promName(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' || c == '-' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

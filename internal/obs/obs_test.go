package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNDJSONGolden pins the span wire schema byte for byte: name, id,
// parent, start_ns, dur_ns, attrs — one JSON object per line, in
// publication order. The tracer's clock is swapped for a deterministic one
// so the golden bytes are stable.
func TestSpanNDJSONGolden(t *testing.T) {
	fake := time.Unix(0, 1_000_000_000)
	saved := now
	now = func() time.Time {
		fake = fake.Add(5 * time.Millisecond)
		return fake
	}
	defer func() { now = saved }()

	tr := NewTracer(16)
	prev := SetTracer(tr)
	defer SetTracer(prev)

	root := StartSpan("audit.batch").Annotate("rows", 128).Annotate("mode", "stream")
	child := root.Child("core.mask.build").Annotate("template", "appt-same-dept")
	child.End()
	root.End()

	var buf bytes.Buffer
	n, err := tr.Drain(&buf)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 2 {
		t.Fatalf("Drain wrote %d spans, want 2", n)
	}
	want := `{"name":"core.mask.build","id":2,"parent":1,"start_ns":1010000000,"dur_ns":5000000,"attrs":{"template":"appt-same-dept"}}
{"name":"audit.batch","id":1,"start_ns":1005000000,"dur_ns":15000000,"attrs":{"mode":"stream","rows":128}}
`
	if got := buf.String(); got != want {
		t.Errorf("span NDJSON mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestZeroSpanIsInert pins the disabled fast path: with no tracer
// installed, StartSpan returns the zero Span and every method is a no-op.
func TestZeroSpanIsInert(t *testing.T) {
	prev := SetTracer(nil)
	defer SetTracer(prev)
	sp := StartSpan("anything")
	if sp.tr != nil {
		t.Fatal("StartSpan with no tracer returned a live span")
	}
	sp.Annotate("k", "v").Child("sub").End()
	sp.End() // must not panic or publish anywhere
}

// TestRingOverflowDropsCounted fills the ring past capacity and checks the
// overflow is dropped and counted — publish must never block.
func TestRingOverflowDropsCounted(t *testing.T) {
	tr := NewTracer(8) // exactly 8 slots
	for i := 0; i < 20; i++ {
		tr.start("s", 0).End()
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	var buf bytes.Buffer
	n, err := tr.Drain(&buf)
	if err != nil || n != 8 {
		t.Fatalf("Drain = (%d, %v), want (8, nil)", n, err)
	}
	// The ring recycled: publishing works again after a drain.
	tr.start("again", 0).End()
	if n, _ := tr.Drain(io.Discard); n != 1 {
		t.Errorf("post-drain publish lost the span (drained %d, want 1)", n)
	}
}

// TestRingConcurrentPublish hammers the ring from many goroutines with
// interleaved drains; the invariant is conservation — every span is either
// drained or counted dropped. Run under -race this is also the registry's
// concurrency test for the ring protocol.
func TestRingConcurrentPublish(t *testing.T) {
	tr := NewTracer(64)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	drained := make(chan int, 1)
	stop := make(chan struct{})
	go func() {
		total := 0
		for {
			n, _ := tr.Drain(io.Discard)
			total += n
			select {
			case <-stop:
				n, _ := tr.Drain(io.Discard)
				drained <- total + n
				return
			default:
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.start("s", 0).End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	total := <-drained
	if got := total + int(tr.Dropped()); got != goroutines*perG {
		t.Errorf("drained %d + dropped %d = %d spans, want %d", total, tr.Dropped(), got, goroutines*perG)
	}
}

// TestRegistryConcurrent exercises get-or-create and updates from many
// goroutines (the -race coverage the satellite task asks for) and checks
// the final counts.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("test.shared.counter")
			h := r.Histogram("test.shared.hist")
			ga := r.Gauge("test.shared.gauge")
			for i := 0; i < perG; i++ {
				c.Add(1)
				h.Observe(int64(i))
				ga.Set(int64(g))
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap["test.shared.counter"].Value; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap["test.shared.hist"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBuckets pins the log₂ bucketing: value v lands in the bucket
// bounded by 2^bits.Len64(v) - 1.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	r := NewRegistry()
	r.mu.Lock()
	r.hists["h"] = &h
	r.mu.Unlock()
	m := r.Snapshot()["h"]
	want := []Bucket{{Le: 0, Count: 2}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 7, Count: 1}, {Le: 1023, Count: 1}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", m.Buckets, want)
	}
	for i := range want {
		if m.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, m.Buckets[i], want[i])
		}
	}
	if m.Sum != 1010 || m.Count != 7 {
		t.Errorf("sum/count = %d/%d, want 1010/7", m.Sum, m.Count)
	}
}

// TestMerge pins federated aggregation: counters sum, histogram buckets sum
// by bound, names missing on one side pass through.
func TestMerge(t *testing.T) {
	a := map[string]Metric{
		"c":  {Kind: KindCounter, Value: 3},
		"h":  {Kind: KindHistogram, Count: 2, Sum: 5, Buckets: []Bucket{{Le: 3, Count: 2}}},
		"ax": {Kind: KindCounter, Value: 1},
	}
	b := map[string]Metric{
		"c": {Kind: KindCounter, Value: 4},
		"h": {Kind: KindHistogram, Count: 1, Sum: 9, Buckets: []Bucket{{Le: 15, Count: 1}}},
	}
	m := Merge(a, b)
	if m["c"].Value != 7 || m["ax"].Value != 1 {
		t.Errorf("merged counters = %+v", m)
	}
	h := m["h"]
	if h.Count != 3 || h.Sum != 14 || len(h.Buckets) != 2 || h.Buckets[0] != (Bucket{3, 2}) || h.Buckets[1] != (Bucket{15, 1}) {
		t.Errorf("merged histogram = %+v", h)
	}
	// Merge must not have mutated its inputs' bucket slices.
	if a["h"].Buckets[0].Count != 2 {
		t.Error("Merge mutated input snapshot")
	}
}

// TestWritePrometheus sanity-checks the text exposition rendering.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.plan.hits").Add(5)
	r.Gauge("query.reach.cap").Set(1024)
	r.Histogram("store.sync_nanos").Observe(100)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE query_plan_hits counter\nquery_plan_hits 5\n",
		"# TYPE query_reach_cap gauge\nquery_reach_cap 1024\n",
		"store_sync_nanos_bucket{le=\"127\"} 1\n",
		"store_sync_nanos_sum 100\n",
		"store_sync_nanos_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSON sanity-checks the expvar-style document.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b.c").Add(2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"a.b.c\": 2") {
		t.Errorf("JSON output missing counter: %s", buf.String())
	}
}

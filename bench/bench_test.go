package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5},
	} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", vs, c.p, got, c.want)
		}
	}
	if vs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if q := summarize([]float64{1, 2, 3, 4, 5}); q.N != 5 || q.Q1 != 2 || q.Med != 3 || q.Q3 != 4 || q.Min != 1 || q.Max != 5 {
		t.Errorf("summarize = %+v", q)
	}
}

func TestSplitLog(t *testing.T) {
	csv := "Lid:int,Date:date,User:int,Patient:int\n" +
		"1,0,10,7\n2,0,11,7\n3,1,10,8\n4,2,12,9\n5,2,10,7\n6,2,11,9\n"
	base, tail, err := splitLog([]byte(csv))
	if err != nil {
		t.Fatal(err)
	}
	if want := "Lid:int,Date:date,User:int,Patient:int\n1,0,10,7\n2,0,11,7\n3,1,10,8\n"; string(base) != want {
		t.Errorf("base = %q, want %q", base, want)
	}
	if want := "4,2,12,9\n5,2,10,7\n6,2,11,9\n"; string(tail) != want {
		t.Errorf("tail = %q, want %q", tail, want)
	}
	if string(base)+string(tail) != csv {
		t.Error("base + tail is not the original file")
	}
	if _, _, err := splitLog([]byte("Lid:int,Date:date\n1,0\n2,0\n")); err == nil {
		t.Error("a single-day log should not split")
	}
	if _, _, err := splitLog([]byte("Lid:int,Date:date\n1,0\n2,1")); err == nil {
		t.Error("a log with a torn last row should not split")
	}

	counts, order, err := patientCounts([]byte(csv))
	if err != nil {
		t.Fatal(err)
	}
	if counts[7] != 3 || counts[8] != 1 || counts[9] != 2 || len(order) != 3 || order[0] != 7 || order[2] != 9 {
		t.Errorf("patientCounts = %v %v", counts, order)
	}
}

// oneByteReader hands out one byte per Read, so every line straddles reads.
type oneByteReader struct{ r *strings.Reader }

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

func TestReadStream(t *testing.T) {
	var input strings.Builder
	for i := 0; i < 250; i++ {
		input.WriteString(`{"lid":` + strings.Repeat("9", i%7+1) + "}\n")
	}
	input.WriteString("no newline at the end")
	text := input.String()
	lines := strings.Split(text, "\n")

	for name, r := range map[string]interface{ Read([]byte) (int, error) }{
		"whole": strings.NewReader(text), "bytewise": oneByteReader{strings.NewReader(text)},
	} {
		s, err := readStream(r, time.Now())
		if err != nil {
			t.Fatal(name, err)
		}
		if s.Bytes != int64(len(text)) || s.Lines != 251 {
			t.Errorf("%s: %d bytes %d lines, want %d and 251", name, s.Bytes, s.Lines, len(text))
		}
		if want := crc32.Checksum([]byte(text), castagnoli); s.CRC != want {
			t.Errorf("%s: crc %08x, want %08x", name, s.CRC, want)
		}
		for i, want := range lines {
			if got := s.LineCRC[i]; got != crc32.Checksum([]byte(want), castagnoli) {
				t.Fatalf("%s: line %d crc mismatch", name, i)
			}
		}
		tail := s.Tail()
		if len(s.Head) != keepLines || len(tail) != keepLines {
			t.Fatalf("%s: kept %d head and %d tail lines", name, len(s.Head), len(tail))
		}
		if string(s.Head[0]) != lines[0] || string(s.Head[99]) != lines[99] ||
			string(tail[0]) != lines[151] || string(tail[99]) != lines[250] {
			t.Errorf("%s: head/tail lines are not the first/last %d", name, keepLines)
		}
	}

	s, err := readStream(strings.NewReader("a\nb\n"), time.Now())
	if err != nil || s.Lines != 2 || len(s.Tail()) != 2 || string(s.Tail()[1]) != "b" {
		t.Errorf("short stream: %+v %v", s, err)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [50,90); a has child c [20,30).
	spans := []span{
		{Trace: 1, Span: 1, Parent: 0, Layer: "bench", StartNS: 0, EndNS: 100},
		{Trace: 1, Span: 2, Parent: 1, Layer: "store", StartNS: 10, EndNS: 40},
		{Trace: 1, Span: 3, Parent: 2, Layer: "core", StartNS: 20, EndNS: 30},
		{Trace: 1, Span: 4, Parent: 1, Layer: "core", StartNS: 50, EndNS: 90},
		{Trace: 2, Span: 5, Parent: 0, Layer: "core", StartNS: 0, EndNS: 1000}, // another trace
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{"bench": 30, "store": 20, "core": 50}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("selfTimes = %v", got)
	}

	tr := newTracer()
	tr.newTrace()
	endRoot := tr.start("bench", "root")
	endChild := tr.start("store", "child")
	endChild()
	endRoot()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].Span || tr.spans[0].Parent != 0 ||
		tr.spans[1].StartNS < tr.spans[0].StartNS || tr.spans[1].EndNS > tr.spans[0].EndNS {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	tr.recording = false
	tr.start("core", "untraced")()
	if len(tr.spans) != 2 {
		t.Error("tracer recorded a span with recording off")
	}
}

// TestWorkloadsSmoke runs every workload and the traced run end to end at
// Tiny scale and checks that each prints every metric BENCHMARK.json names,
// once, with a finite value.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloadNames))
	}
	check := func(t *testing.T, defs []metricDef, args ...string) {
		var stdout, stderr bytes.Buffer
		args = append(args, "-scale", "tiny", "-seed", "3", "-seconds", "0.05")
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
		}
		out := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line summaryLine
		if err := json.Unmarshal([]byte(out[len(out)-1]), &line); err != nil {
			t.Fatalf("last line %q: %v", out[len(out)-1], err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d", args, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("%v: %d metrics, want %d", args, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%v: metric %s = %+v (present %v), want a finite value in %s", args, d.Name, m, ok, d.Unit)
			}
			if n := strings.Count(stdout.String(), "\n"+d.Name+" "); n != 1 {
				t.Errorf("%v: metric %s printed %d times", args, d.Name, n)
			}
		}
	}
	for i, name := range workloadNames {
		if man.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, man.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) { check(t, man.EndToEnd, "-workload", name, "-trace", "0") })
	}
	t.Run("traced", func(t *testing.T) { check(t, man.PerLayer, "-workload", "audit-k1", "-trace", "1") })
}

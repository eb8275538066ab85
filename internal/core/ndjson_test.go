package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/relation"
)

// refReport and refExplanation are the reference wire form: the structs
// the CLI encoded with encoding/json before AppendNDJSON replaced them.
// AppendNDJSON must produce exactly the bytes json.Encoder writes for them.
type refReport struct {
	Lid          int64            `json:"lid"`
	Date         string           `json:"date"`
	User         string           `json:"user"`
	Patient      string           `json:"patient"`
	UserName     string           `json:"userName"`
	Explained    bool             `json:"explained"`
	Explanations []refExplanation `json:"explanations,omitempty"`
}

type refExplanation struct {
	Template string `json:"template"`
	Length   int    `json:"length"`
	Text     string `json:"text"`
}

// refNDJSON encodes rep through the reference structs and json.Encoder.
func refNDJSON(t testing.TB, rep core.AccessReport) []byte {
	t.Helper()
	out := refReport{
		Lid:       rep.Lid,
		Date:      rep.Date.String(),
		User:      rep.User.String(),
		Patient:   rep.Patient.String(),
		UserName:  rep.UserName,
		Explained: rep.Explained(),
	}
	for _, e := range rep.Explanations {
		out.Explanations = append(out.Explanations, refExplanation{Template: e.Template, Length: e.Length, Text: e.Text})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzValue builds a relation.Value of the given kind selector: NULL, an
// int, a string, or a date.
func fuzzValue(kind uint8, i int64, s string) relation.Value {
	switch kind & 3 {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(i)
	case 2:
		return relation.String(s)
	}
	return relation.Date(int(i % 200000))
}

// FuzzAppendNDJSON pins AppendNDJSON byte for byte to the reference
// encoder over arbitrary reports: every string field carries arbitrary
// bytes (control bytes, HTML metacharacters, invalid UTF-8, U+2028/2029),
// every scalar column any Value kind, and the explanation list is nil,
// empty or non-empty. The encoder must also leave dst's prefix intact.
func FuzzAppendNDJSON(f *testing.F) {
	var controls strings.Builder
	for b := 0; b < 0x20; b++ {
		controls.WriteByte(byte(b))
	}
	controls.WriteByte(0x7f)
	lineSeps := "a\xe2\x80\xa8b\xe2\x80\xa9c"
	for _, s := range []string{
		"", "plain", "<>&", `"`, `\`, `a"b\c`, controls.String(), "\x00", "nul\x00mid",
		"\xff", "a\xc3", "\xed\xa0\x80", "\xe2\x80", lineSeps, "caf\xc3\xa9 \xe6\x97\xa5\xf0\x9f\x98\x80",
		"<script>alert('x')</script> & co",
	} {
		for _, kinds := range []uint8{0x00, 0x15, 0x2a, 0x3f, 0x1b} {
			f.Add(int64(7), kinds, int64(3), int64(-42), int64(1<<40), s, "str", s, s, uint8(0), "tpl", 2, s)
			f.Add(int64(-1), kinds, int64(-3), int64(0), int64(math.MaxInt64), "x", s, "", "Dr. "+s, uint8(2), s, -1, s)
		}
	}
	f.Add(int64(math.MinInt64), uint8(0x3f), int64(2047), int64(2048), int64(-200001), "", "", "", "", uint8(4), "", 0, "")
	f.Add(int64(math.MaxInt64), uint8(0x00), int64(0), int64(0), int64(0), "", "", "", "", uint8(3), "repeat-access", 1, "previously accessed")

	f.Fuzz(func(t *testing.T, lid int64, kinds uint8, i1, i2, i3 int64, s1, s2, s3, userName string, nExpl uint8, tmpl string, length int, text string) {
		rep := core.AccessReport{
			Lid:      lid,
			Date:     fuzzValue(kinds, i1, s1),
			User:     fuzzValue(kinds>>2, i2, s2),
			Patient:  fuzzValue(kinds>>4, i3, s3),
			UserName: userName,
		}
		switch n := int(nExpl % 5); n {
		case 4:
			rep.Explanations = []core.Explanation{} // rendered nothing: not explained
		default:
			for k := 0; k < n; k++ {
				rep.Explanations = append(rep.Explanations, core.Explanation{Template: tmpl, Length: length + k, Text: text[:len(text)*k/3]})
			}
		}
		want := refNDJSON(t, rep)
		got := core.AppendNDJSON([]byte("prefix"), rep)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendNDJSON differs from the reference encoder\n got %q\nwant prefix+%q", got, want)
		}
	})
}

// ndjsonEngine is the encoded-stream surface core.Auditor and
// federate.Federation share.
type ndjsonEngine interface {
	StreamReports(ctx context.Context, parallelism int, fn func(core.AccessReport) error) error
	StreamNDJSON(ctx context.Context, parallelism int, emit func(buf []byte, rows, explained int) error) error
}

// seededEngines returns the single auditor over a Tiny hospital of the
// given seed plus time-range Splits of its database into 1, 2 and 4 shards
// with the same namer and templates.
func seededEngines(t *testing.T, seed int64) (*core.Auditor, map[string]ndjsonEngine) {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())
	a := core.NewAuditor(ds.DB, graph, core.WithNamer(ds))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	engines := map[string]ndjsonEngine{"auditor": a}
	for _, k := range []int{1, 2, 4} {
		f, err := federate.Split(ds.DB, graph, k, nil, federate.WithNamer(ds))
		if err != nil {
			t.Fatal(err)
		}
		f.AddTemplates(a.Templates()...)
		engines[fmt.Sprintf("split%d", k)] = f
	}
	return a, engines
}

// checkChunk asserts buf is rows whole NDJSON lines.
func checkChunk(t *testing.T, buf []byte, rows int) {
	t.Helper()
	if rows <= 0 || len(buf) == 0 || buf[len(buf)-1] != '\n' || bytes.Count(buf, []byte("\n")) != rows {
		t.Fatalf("chunk of %d bytes is not %d whole lines", len(buf), rows)
	}
}

// TestStreamNDJSONMatchesStreamReports is the encoded stream's
// differential: on three seeds, for the single auditor and for 1-, 2- and
// 4-shard Splits, at every worker count, StreamNDJSON's concatenated
// chunks must equal the reference encoding of the StreamReports sequence
// byte for byte, with equal row and explained counts.
func TestStreamNDJSONMatchesStreamReports(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		a, engines := seededEngines(t, seed)
		var want []byte
		wantExplained := 0
		if err := a.StreamReports(ctx, 1, func(rep core.AccessReport) error {
			want = append(want, refNDJSON(t, rep)...)
			if rep.Explained() {
				wantExplained++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		wantRows := a.Log().NumRows()
		for name, e := range engines {
			for _, j := range []int{1, 2, 4, 8} {
				var fromReports []byte
				if err := e.StreamReports(ctx, j, func(rep core.AccessReport) error {
					fromReports = core.AppendNDJSON(fromReports, rep)
					return nil
				}); err != nil {
					t.Fatalf("seed %d %s j=%d: StreamReports: %v", seed, name, j, err)
				}
				var got []byte
				rows, explained := 0, 0
				if err := e.StreamNDJSON(ctx, j, func(buf []byte, r, x int) error {
					checkChunk(t, buf, r)
					got = append(got, buf...)
					rows += r
					explained += x
					return nil
				}); err != nil {
					t.Fatalf("seed %d %s j=%d: StreamNDJSON: %v", seed, name, j, err)
				}
				if !bytes.Equal(fromReports, want) {
					t.Fatalf("seed %d %s j=%d: encoded StreamReports differs from the reference encoding", seed, name, j)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s j=%d: StreamNDJSON (%d bytes) differs from the encoded StreamReports (%d bytes)",
						seed, name, j, len(got), len(want))
				}
				if rows != wantRows || explained != wantExplained {
					t.Fatalf("seed %d %s j=%d: counted %d rows / %d explained, want %d / %d",
						seed, name, j, rows, explained, wantRows, wantExplained)
				}
			}
		}
	}
}

// TestStreamNDJSONCancelWholeChunks cancels the context from inside emit
// after the first chunk: the stream must return ctx.Err() promptly, and
// what emit saw must be whole chunks forming a byte prefix of the full
// stream — never a torn line.
func TestStreamNDJSONCancelWholeChunks(t *testing.T) {
	_, engines := seededEngines(t, 1)
	for name, e := range engines {
		var full []byte
		if err := e.StreamNDJSON(context.Background(), 4, func(buf []byte, _, _ int) error {
			full = append(full, buf...)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var got []byte
		chunks := 0
		err := e.StreamNDJSON(ctx, 4, func(buf []byte, rows, _ int) error {
			checkChunk(t, buf, rows)
			got = append(got, buf...)
			chunks++
			cancel()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: StreamNDJSON err = %v, want context.Canceled", name, err)
		}
		if chunks == 0 || chunks > 2 || len(got) >= len(full) || !bytes.HasPrefix(full, got) {
			t.Fatalf("%s: cancelled stream emitted %d chunks, %d of %d bytes (prefix: %v)",
				name, chunks, len(got), len(full), bytes.HasPrefix(full, got))
		}
	}
}

package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
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
// chunks must equal the reference encoding of the single auditor's
// StreamReports sequence byte for byte, with equal row and explained
// counts.
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

// renderAuditor builds an auditor over a Tiny hospital of the given seed,
// naming through the dataset when named and through NullNamer otherwise,
// with the catalog plus description templates beyond it: audited-row
// placeholders with no role, an unknown alias, a token without a dot,
// every role on both the audited row and a bound instance, an unknown
// role, a template assembled without its constructor, the decorated
// repeat-access template and one with no description (the generic
// rendering).
func renderAuditor(t *testing.T, seed int64, named bool) *core.Auditor {
	t.Helper()
	cfg := ehr.Tiny()
	cfg.Seed = seed
	ds := ehr.Generate(cfg)
	var opts []core.Option
	if named {
		opts = append(opts, core.WithNamer(ds))
	}
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()), opts...)
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	appt := explain.WithDrTemplate("appt-with-dr", "Appointments", "an appointment")
	desc := "On [L.Date] (access [L.Lid]) [L.User|user] saw [L.Patient|patient]; " +
		"[Appointments1.Doctor|caregiver] booked [Appointments1.Patient|patient] " +
		"as [Appointments1.Doctor|user] on [Appointments1.Date], [Nope1.X] [tok] " +
		"[L.User|nobody] [L.Patient|caregiver]."
	a.AddTemplates(
		explain.NewPathTemplate("fixture", appt.Path, desc),
		&explain.PathTemplate{TemplateName: "fixture-literal", Path: appt.Path, Desc: desc},
		datedRepeatAccess(),
		explain.NewPathTemplate("fixture-generic", explain.GroupTemplate("g", "Appointments", "an appointment").Path, ""),
	)
	return a
}

// collectNDJSON concatenates a StreamNDJSON run's chunks, checking each is
// whole lines, and returns the bytes and the explained count.
func collectNDJSON(t *testing.T, a *core.Auditor, j int) ([]byte, int) {
	t.Helper()
	var out []byte
	explained := 0
	if err := a.StreamNDJSON(context.Background(), j, func(buf []byte, rows, x int) error {
		checkChunk(t, buf, rows)
		out = append(out, buf...)
		explained += x
		return nil
	}); err != nil {
		t.Fatalf("StreamNDJSON(j=%d): %v", j, err)
	}
	return out, explained
}

// encodeReports encodes a StreamReports run with the oracle encoder and
// returns the bytes and the explained count.
func encodeReports(t *testing.T, a *core.Auditor, j int) ([]byte, int) {
	t.Helper()
	var out []byte
	explained := 0
	if err := a.StreamReports(context.Background(), j, func(rep core.AccessReport) error {
		out = core.AppendNDJSON(out, rep)
		if rep.Explained() {
			explained++
		}
		return nil
	}); err != nil {
		t.Fatalf("StreamReports(j=%d): %v", j, err)
	}
	return out, explained
}

// TestStreamNDJSONSinkMatchesStringSink pins the NDJSON sink to the string
// sink: on Tiny seeds 1-3, under NullNamer and the dataset namer, over the
// catalog and the fixture templates, StreamNDJSON at j=1 and j=4 and
// AppendNDJSONRows over the whole log must equal the oracle encoding of
// StreamReports byte for byte, with equal explained counts.
func TestStreamNDJSONSinkMatchesStringSink(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, named := range []bool{false, true} {
			a := renderAuditor(t, seed, named)
			want, wantExplained := encodeReports(t, a, 1)
			if wantExplained == 0 || wantExplained == a.Log().NumRows() {
				t.Fatalf("seed %d named %v: %d of %d rows explained; the fixture exercises nothing", seed, named, wantExplained, a.Log().NumRows())
			}
			for _, j := range []int{1, 4} {
				got, explained := collectNDJSON(t, a, j)
				if !bytes.Equal(got, want) || explained != wantExplained {
					t.Fatalf("seed %d named %v j=%d: StreamNDJSON (%d bytes, %d explained) differs from the encoded StreamReports (%d bytes, %d explained)",
						seed, named, j, len(got), explained, len(want), wantExplained)
				}
			}
			rows, err := a.AppendNDJSONRows([]byte("prefix"), 0, a.Log().NumRows())
			if err != nil || !bytes.Equal(rows, append([]byte("prefix"), want...)) {
				t.Fatalf("seed %d named %v: AppendNDJSONRows differs from the encoded StreamReports (err %v)", seed, named, err)
			}
		}
	}
	a := renderAuditor(t, 1, false)
	n := a.Log().NumRows()
	for _, r := range [][2]int{{-1, 1}, {2, 1}, {0, n + 1}} {
		if _, err := a.AppendNDJSONRows(nil, r[0], r[1]); err == nil {
			t.Errorf("AppendNDJSONRows(%d, %d) over %d rows succeeded", r[0], r[1], n)
		}
	}
}

// TestStreamNDJSONRendersReplacedTable: programs are compiled per call, so
// an event table replaced with AddTable between two StreamNDJSON calls is
// rendered from the new table — the second stream equals both the encoded
// StreamReports and a fresh auditor's stream over the changed database, and
// differs from the first.
func TestStreamNDJSONRendersReplacedTable(t *testing.T) {
	a := renderAuditor(t, 1, false)
	before, _ := collectNDJSON(t, a, 2)
	old := a.Database().MustTable("Appointments")
	date := slices.Index(old.Columns(), "Date")
	moved := relation.NewTable(old.Name(), old.Columns()...)
	for r := range old.NumRows() {
		row := slices.Clone(old.Row(r))
		row[date] = relation.Date(int(row[date].Int) + 1)
		moved.Append(row...)
	}
	a.AddTable(moved)
	after, _ := collectNDJSON(t, a, 2)
	if bytes.Equal(after, before) {
		t.Fatal("moving every appointment a day changed no explanation; the test is vacuous")
	}
	if want, _ := encodeReports(t, a, 1); !bytes.Equal(after, want) {
		t.Fatal("after AddTable, StreamNDJSON differs from the encoded StreamReports")
	}
	fresh := core.NewAuditor(a.Database(), ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	fresh.AddTemplates(a.Templates()...)
	if want, _ := collectNDJSON(t, fresh, 2); !bytes.Equal(after, want) {
		t.Fatal("after AddTable, StreamNDJSON differs from a fresh auditor's stream")
	}
}

// TestStreamNDJSONAllocBudget pins the NDJSON sink's allocation budget
// without a timing assertion: with warm masks and NullNamer, a whole-log
// StreamNDJSON over Tiny seed 1 averages at most 4 allocations per row —
// no report, explanation or text string is built per row, so what remains
// is the call's fixed cost (programs, cursors, instance memo) and the
// memo's misses.
func TestStreamNDJSONAllocBudget(t *testing.T) {
	ds := ehr.Generate(ehr.Tiny())
	a := core.NewAuditor(ds.DB, ehr.SchemaGraph(ehr.DefaultGraphOptions()))
	a.BuildGroups(core.GroupsOptions{})
	a.AddTemplates(explain.Handcrafted(true, true).All()...)
	ctx := context.Background()
	if err := a.Refresh(ctx, 2); err != nil {
		t.Fatal(err)
	}
	rows := float64(a.Log().NumRows())
	allocs := testing.AllocsPerRun(5, func() {
		if err := a.StreamNDJSON(ctx, 2, func([]byte, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 4 {
		t.Errorf("StreamNDJSON allocates %.2f objects per row (%.0f per call over %.0f rows), want <= 4", perRow, allocs, rows)
	}
}

// fuzzNamer names every identifier with a fuzzed string.
type fuzzNamer struct{ name string }

func (n fuzzNamer) PatientName(relation.Value) string     { return n.name }
func (n fuzzNamer) UserName(v relation.Value) string      { return "Dr. " + n.name + v.String() }
func (n fuzzNamer) CaregiverName(v relation.Value) string { return v.String() + n.name }

// FuzzRenderNDJSON pins the NDJSON sink to encoding/json where escaping
// meets rendering: a namer's outputs, a string column value (the accessing
// user's id, which also lands in the report header, and an appointment's
// note) and a description literal all carry arbitrary bytes. Under
// NullNamer and the fuzzed namer, StreamNDJSON and AppendNDJSONRows must
// equal json.Encoder over the string sink's reports. The seeds include a
// literal ending in the first byte of U+2028 before a value holding the
// rest: escaped piece by piece that is three replacement characters,
// escaped whole it is the escaped U+2028.
func FuzzRenderNDJSON(f *testing.F) {
	var controls strings.Builder
	for b := 0; b < 0x20; b++ {
		controls.WriteByte(byte(b))
	}
	controls.WriteByte(0x7f)
	for _, s := range []string{
		"", "plain", "<", "&", `"`, `\`, "<b>&amp;\"q\"\\", "\u2028", "\u2029", "a\u2028b\u2029c",
		controls.String(), "\xff", "a\xc3", "\xed\xa0\x80", "\xe2\x80", "caf\xc3\xa9 \xe6\x97\xa5",
	} {
		f.Add(s, "v", "lit ")
		f.Add("n", s, "lit ")
		f.Add("n", "v", s)
		f.Add(s, s, s)
	}
	f.Add("n", "\x80\xa8b", "a\xe2")   // U+2028 split across a placeholder boundary
	f.Add("\xe2", "\x80\xa9", "x\xe2") // ... and across namer outputs and values
	f.Add("\x80\xa8", "\xe2", "\xe2\x80")
	f.Add("\xe2", "\x80\xa8", "ok") // a valid literal; the namer's output and the next value join

	f.Fuzz(func(t *testing.T, name, value, literal string) {
		literal = strings.Map(func(r rune) rune {
			if r == '[' || r == ']' {
				return -1 // a literal, not a placeholder
			}
			return r
		}, literal)
		log := relation.NewTable("Log", "Lid", "Date", "User", "Patient")
		log.Append(relation.Int(1), relation.Date(0), relation.String(value), relation.Int(1))
		log.Append(relation.Int(2), relation.Date(1), relation.String(value), relation.Int(1))
		log.Append(relation.Int(3), relation.Date(2), relation.String("other "+value), relation.Int(2))
		appt := relation.NewTable("Appointments", "Patient", "Date", "Doctor", "Note")
		appt.Append(relation.Int(1), relation.Date(0), relation.String(value), relation.String(value))
		appt.Append(relation.Int(1), relation.Date(3), relation.String(value), relation.String(literal+value))
		db := relation.NewDatabase()
		db.AddTable(log)
		db.AddTable(appt)
		path := explain.SetBTemplate("base", "Appointments", "Doctor", "booked").Path
		desc := literal + "[Appointments1.Note]" + literal + "[L.User|user]" + literal + "[L.Patient|patient]" +
			"[Appointments1.Doctor|caregiver]" + literal + "[L.User]" + literal
		for _, namer := range []explain.Namer{explain.NullNamer{}, fuzzNamer{name}} {
			a := core.NewAuditor(db, ehr.SchemaGraph(ehr.DefaultGraphOptions()), core.WithNamer(namer))
			a.AddTemplates(
				explain.NewPathTemplate("t"+literal, path, desc),
				explain.RepeatAccess(),
				explain.NewPathTemplate("generic", path, ""),
			)
			var want []byte
			explained := 0
			if err := a.StreamReports(context.Background(), 1, func(rep core.AccessReport) error {
				want = append(want, refNDJSON(t, rep)...)
				if rep.Explained() {
					explained++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if explained != 2 {
				t.Fatalf("%T: %d rows explained, want 2", namer, explained)
			}
			if got, _ := collectNDJSON(t, a, 2); !bytes.Equal(got, want) {
				t.Fatalf("%T: StreamNDJSON differs from encoding/json over the reports\n got %q\nwant %q", namer, got, want)
			}
			if got, err := a.AppendNDJSONRows(nil, 0, log.NumRows()); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T: AppendNDJSONRows differs from encoding/json over the reports (err %v)\n got %q\nwant %q", namer, err, got, want)
			}
		}
	})
}

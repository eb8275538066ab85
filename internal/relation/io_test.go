package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDumpLoadRoundTrip(t *testing.T) {
	orig := NewTable("Mixed", "ID", "Name", "Day", "Note")
	orig.Append(Int(1), String("alice"), Date(0), Null())
	orig.Append(Int(2), String("bob, jr."), Date(3), String("quoted,cell"))
	orig.Append(Int(-7), String(`with "quotes"`), Date(6), String("line\nbreak"))

	var buf bytes.Buffer
	if err := orig.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load("Mixed", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != orig.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), orig.NumRows())
	}
	for r := 0; r < orig.NumRows(); r++ {
		for c, col := range orig.Columns() {
			if got.Row(r)[c] != orig.Row(r)[c] {
				t.Errorf("row %d column %s: %v != %v", r, col, got.Row(r)[c], orig.Row(r)[c])
			}
		}
	}
}

func TestDumpHeaderKinds(t *testing.T) {
	tb := NewTable("T", "A", "B", "C")
	tb.Append(Int(1), String("x"), Date(2))
	var buf bytes.Buffer
	if err := tb.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != "A:int,B:string,C:date" {
		t.Errorf("header = %q", header)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"missing kind": "A,B:int\n1,2\n",
		"unknown kind": "A:float\n1\n",
		"bad int":      "A:int\nxyz\n",
		"bad date":     "A:date\nxyz\n",
		"ragged row":   "A:int,B:int\n1\n",
	}
	for name, input := range cases {
		if _, err := Load("T", strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
		}
	}
	if _, err := Load("T", strings.NewReader("")); err == nil {
		t.Error("empty input: Load succeeded")
	}
}

func TestLoadEmptyTable(t *testing.T) {
	got, err := Load("T", strings.NewReader("A:int,B:string\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || len(got.Columns()) != 2 {
		t.Errorf("rows=%d cols=%d", got.NumRows(), len(got.Columns()))
	}
}

// TestDumpLoadRandomRoundTrip is the property version: arbitrary tables of
// ints/strings/dates survive the round trip.
func TestDumpLoadRandomRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("T", "I", "S", "D")
		for i := 0; i < r.Intn(30); i++ {
			tb.Append(
				Int(int64(r.Intn(1000)-500)),
				String(randomString(r)),
				Date(r.Intn(7)),
			)
		}
		var buf bytes.Buffer
		if err := tb.Dump(&buf); err != nil {
			return false
		}
		got, err := Load("T", &buf)
		if err != nil || got.NumRows() != tb.NumRows() {
			return false
		}
		for i := 0; i < tb.NumRows(); i++ {
			for c := range tb.Columns() {
				if got.Row(i)[c] != tb.Row(i)[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randomString(r *rand.Rand) string {
	alphabet := []rune("abcdef ,\"'\n\\éあ")
	n := r.Intn(8)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(out)
}

// TestNullSentinelEscaping pins the `\N` ambiguity fix: a literal string
// value `\N` (or any run of backslashes ending in N) must survive the
// round trip as a string, while a genuine Null still loads as Null. Before
// the escape, `\N` dumped verbatim and loaded back as Null.
func TestNullSentinelEscaping(t *testing.T) {
	adversarial := []string{`\N`, `\\N`, `\\\N`, `N`, `\`, `\M`, `x\N`, `\Nx`, ""}
	tb := NewTable("T", "S", "Nul")
	for _, s := range adversarial {
		tb.Append(String(s), Null())
	}
	var buf bytes.Buffer
	if err := tb.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load("T", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != len(adversarial) {
		t.Fatalf("rows = %d, want %d", got.NumRows(), len(adversarial))
	}
	for r, s := range adversarial {
		if v := got.Row(r)[0]; v != String(s) {
			t.Errorf("row %d: string %q loaded as %v", r, s, v)
		}
		if v := got.Row(r)[1]; v.Kind != KindNull {
			t.Errorf("row %d: null loaded as %v", r, v)
		}
	}
}

// TestLoadErrorLineNumbers pins the off-by-one fix: the header is file line
// 1, so a malformed first data record must be reported at line 2 (what an
// editor shows), not "row 1".
func TestLoadErrorLineNumbers(t *testing.T) {
	cases := map[string]struct {
		input string
		want  string
	}{
		"first data row": {"A:int\nxyz\n", "line 2"},
		"third data row": {"A:int\n1\n2\nxyz\n", "line 4"},
		"ragged row":     {"A:int,B:int\n1,2\n3\n", "line 3"},
	}
	for name, tc := range cases {
		_, err := Load("T", strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}

// FuzzValueRoundTrip feeds arbitrary string cells through the Dump/Load
// loop: every string — seeded with the adversarial null-sentinel family —
// must come back exactly, next to a Null that must stay Null.
func FuzzValueRoundTrip(f *testing.F) {
	for _, s := range []string{`\N`, `\\N`, `\\\N`, `N`, `\`, "", "plain", "a,b\nc"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.ContainsRune(s, '\r') {
			// encoding/csv normalizes CRLF inside quoted fields to LF on
			// read; carriage returns are outside the format's round-trip
			// contract (no generator emits them).
			t.Skip("carriage returns are not round-trip safe in CSV")
		}
		tb := NewTable("T", "S", "Nul")
		tb.Append(String(s), Null())
		var buf bytes.Buffer
		if err := tb.Dump(&buf); err != nil {
			t.Fatalf("%q: Dump: %v", s, err)
		}
		got, err := Load("T", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q: Load: %v", s, err)
		}
		if got.NumRows() != 1 {
			t.Fatalf("%q: rows = %d", s, got.NumRows())
		}
		if v := got.Row(0)[0]; v != String(s) {
			t.Errorf("string %q loaded as %v", s, v)
		}
		if v := got.Row(0)[1]; v.Kind != KindNull {
			t.Errorf("%q: null loaded as %v", s, v)
		}
	})
}

// Package relation implements the small in-memory relational engine that the
// rest of the repository is built on. It stands in for the PostgreSQL
// instance used in the paper's evaluation: it stores typed tables by column
// — one array per column, of the kind its header or its first value
// declares. Value is the dynamically typed scalar at the edges: what a cell
// is read as (Cell, Row), appended as (AppendRows), and keyed by in an
// index.
package relation

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine. Dates are stored as day-precision
// integers (days since an epoch) because the paper's log and event tables
// only ever compare dates, never arbitrary timestamps.
const (
	KindNull Kind = iota
	KindInt
	KindString
	KindDate
)

// Value is a dynamically typed scalar. It is a comparable struct so that it
// can be used directly as a map key in hash joins and DISTINCT projections.
type Value struct {
	Kind Kind
	Int  int64 // payload for KindInt and KindDate
	Str  string
}

// Null returns the null value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, Int: v} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Date returns a date value from a day index (days since the simulation
// epoch).
func Date(day int) Value { return Value{Kind: KindDate, Int: int64(day)} }

// AsInt returns the integer payload of an int or date value; it returns 0
// for other kinds.
func (v Value) AsInt() int64 {
	if v.Kind == KindInt || v.Kind == KindDate {
		return v.Int
	}
	return 0
}

// Less reports whether v sorts before w. Values of different kinds are
// ordered by kind, which gives a stable total order for deterministic
// output.
func (v Value) Less(w Value) bool {
	if v.Kind != w.Kind {
		return v.Kind < w.Kind
	}
	switch v.Kind {
	case KindInt, KindDate:
		return v.Int < w.Int
	case KindString:
		return v.Str < w.Str
	}
	return false
}

// Compare returns -1, 0, or +1 according to the order defined by Less.
func (v Value) Compare(w Value) int {
	switch {
	case v == w:
		return 0
	case v.Less(w):
		return -1
	default:
		return 1
	}
}

// String renders the value for display in explanation text and CLI output.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindString:
		return v.Str
	case KindDate:
		return dayText(int(v.Int))
	}
	return string(v.AppendString(nil))
}

// AppendString appends the text String returns to dst, without the
// intermediate string: the form renderers assembling a line in a reused
// buffer call.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case KindString:
		return append(dst, v.Str...)
	case KindDate:
		return append(dst, dayText(int(v.Int))...)
	}
	return fmt.Appendf(dst, "Value(kind=%d)", v.Kind)
}

// simulationEpoch anchors day indexes to a concrete calendar so that
// rendered explanations read like the paper's examples ("Mon Jan 03 2010").
var simulationEpoch = time.Date(2010, time.January, 3, 0, 0, 0, 0, time.UTC)

// dayTexts memoizes dayText for the first few years of day indexes: a log
// spans days, and every explanation of an access renders one, so the same
// handful of dates would otherwise be re-formatted once per explanation.
// Racing fills store equal strings, so no lock is needed.
var dayTexts [2048]atomic.Pointer[string]

// dayText renders a day index as its calendar date.
func dayText(day int) string {
	memoized := day >= 0 && day < len(dayTexts)
	if memoized {
		if s := dayTexts[day].Load(); s != nil {
			return *s
		}
	}
	s := simulationEpoch.AddDate(0, 0, day).Format("Mon Jan 02 2006")
	if memoized {
		dayTexts[day].Store(&s)
	}
	return s
}

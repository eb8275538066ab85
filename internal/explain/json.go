package explain

import (
	"unicode/utf8"

	"repro/internal/relation"
)

// This file is the package's JSON string encoder: the one escaper of the
// NDJSON wire form, used for the report header and for the explanation
// objects a Program appends. Its bytes are exactly encoding/json's with
// HTML escaping on (the core package's fuzz tests pin them).

// jsonSafe marks the ASCII bytes a JSON string may carry verbatim under
// HTML escaping: printable characters other than '"', '\\', '<', '>' and
// '&'. Control bytes are never safe.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json does with HTML escaping on (see appendEscaped).
func AppendJSONString(dst []byte, s string) []byte {
	dst, _ = appendEscaped(append(dst, '"'), s)
	return append(dst, '"')
}

// AppendJSONValue appends v's display form (relation.Value.String) as a
// JSON string. Only string values can need escaping; the display forms of
// the other kinds (digits, dates, NULL) are ASCII-safe and are appended
// with no scan and no intermediate string.
func AppendJSONValue(dst []byte, v relation.Value) []byte {
	if v.Kind == relation.KindString {
		return AppendJSONString(dst, v.Str)
	}
	return append(v.AppendString(append(dst, '"')), '"')
}

// AppendUserNameJSON appends n.UserName(v) as a JSON string. NullNamer's
// label is ASCII-safe and precedes the display form of v, so under it the
// name is appended in place with no intermediate string.
func AppendUserNameJSON(dst []byte, n Namer, v relation.Value) []byte {
	if _, null := n.(NullNamer); !null {
		return AppendJSONString(dst, n.UserName(v))
	}
	dst, _ = appendValueEscaped(append(append(dst, '"'), userLabel...), v)
	return append(dst, '"')
}

// appendValueEscaped appends v's display form escaped as the body of a JSON
// string, reporting whether it was valid UTF-8. Only string values are
// scanned.
func appendValueEscaped(dst []byte, v relation.Value) ([]byte, bool) {
	if v.Kind == relation.KindString {
		return appendEscaped(dst, v.Str)
	}
	return v.AppendString(dst), true
}

// appendEscaped appends s as the body of a JSON string — no quotes —
// escaped exactly as encoding/json does with HTML escaping on: '"' and '\\'
// get a backslash, \b \f \n \r \t their short escapes, other control bytes
// and '<' '>' '&' become \u00XX, each invalid UTF-8 byte becomes the
// escaped replacement character U+FFFD, and U+2028/U+2029 are escaped. Runs
// of safe bytes are copied in one append. valid reports whether s was valid
// UTF-8: only then does escaping s piece by piece with its neighbours give
// the bytes of escaping the joined text, since an invalid tail byte can
// combine with the next piece's continuation bytes.
func appendEscaped(dst []byte, s string) (out []byte, valid bool) {
	valid = true
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			valid = false
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...), valid
}

package core

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/relation"
)

// AppendNDJSON appends the NDJSON wire form of rep — one JSON object and a
// newline — to dst and returns the extended slice. It is the one encoder of
// the streamed audit record: fields lid, date, user, patient, userName,
// explained, and — only when the access is explained — explanations, an
// array of {template, length, text} objects. Scalar columns are rendered as
// strings through relation.Value's display form. The bytes are exactly what
// encoding/json's Encoder (HTML escaping on) writes for the equivalent
// struct, which the fuzz test pins, but no struct is built and nothing is
// reflected: a report is encoded straight into the caller's buffer.
func AppendNDJSON(dst []byte, rep AccessReport) []byte {
	dst = append(dst, `{"lid":`...)
	dst = strconv.AppendInt(dst, rep.Lid, 10)
	dst = append(dst, `,"date":`...)
	dst = appendJSONValue(dst, rep.Date)
	dst = append(dst, `,"user":`...)
	dst = appendJSONValue(dst, rep.User)
	dst = append(dst, `,"patient":`...)
	dst = appendJSONValue(dst, rep.Patient)
	dst = append(dst, `,"userName":`...)
	dst = appendJSONString(dst, rep.UserName)
	if !rep.Explained() {
		return append(dst, ",\"explained\":false}\n"...)
	}
	dst = append(dst, `,"explained":true,"explanations":[`...)
	for i, e := range rep.Explanations {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"template":`...)
		dst = appendJSONString(dst, e.Template)
		dst = append(dst, `,"length":`...)
		dst = strconv.AppendInt(dst, int64(e.Length), 10)
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, e.Text)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendJSONValue appends v's display form (relation.Value.String) as a
// JSON string. Integers need no escaping and are formatted in place.
func appendJSONValue(dst []byte, v relation.Value) []byte {
	switch v.Kind {
	case relation.KindString:
		return appendJSONString(dst, v.Str)
	case relation.KindInt:
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, v.Int, 10)
		return append(dst, '"')
	}
	return appendJSONString(dst, v.String())
}

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

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json does with HTML escaping on: '"' and '\\' get a backslash,
// \b \f \n \r \t their short escapes, other control bytes and '<' '>' '&'
// become \u00XX, each invalid UTF-8 byte becomes the escaped replacement
// character U+FFFD, and U+2028/U+2029 are escaped. Runs of safe bytes are
// copied in one append.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
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
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

package core

import (
	"strconv"

	"repro/internal/explain"
)

// AppendNDJSON appends the NDJSON wire form of rep to dst: the encoder
// StreamNDJSON used before it rendered straight into the wire, kept as the
// oracle of the NDJSON sink. FuzzAppendNDJSON pins it byte for byte to
// encoding/json, and the differential tests pin StreamNDJSON to it over
// StreamReports.
func AppendNDJSON(dst []byte, rep AccessReport) []byte {
	dst = append(dst, `{"lid":`...)
	dst = strconv.AppendInt(dst, rep.Lid, 10)
	dst = append(dst, `,"date":`...)
	dst = explain.AppendJSONValue(dst, rep.Date)
	dst = append(dst, `,"user":`...)
	dst = explain.AppendJSONValue(dst, rep.User)
	dst = append(dst, `,"patient":`...)
	dst = explain.AppendJSONValue(dst, rep.Patient)
	dst = append(dst, `,"userName":`...)
	dst = explain.AppendJSONString(dst, rep.UserName)
	if !rep.Explained() {
		return append(dst, ",\"explained\":false}\n"...)
	}
	dst = append(dst, `,"explained":true,"explanations":[`...)
	for i, e := range rep.Explanations {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"template":`...)
		dst = explain.AppendJSONString(dst, e.Template)
		dst = append(dst, `,"length":`...)
		dst = strconv.AppendInt(dst, int64(e.Length), 10)
		dst = append(dst, `,"text":`...)
		dst = explain.AppendJSONString(dst, e.Text)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

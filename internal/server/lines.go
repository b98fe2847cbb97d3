package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"

	hypo "hypodatalog"
)

// The hot response lines — a /v1/query stream's binding and done lines
// and the /v1/ask and /v1/askunder response — are appended by hand into
// a reused buffer rather than reflected over by encoding/json. Each is
// byte for byte what json.Encoder writes for it: object keys in its order
// (struct fields as declared, map keys sorted), strings escaped as it
// escapes them (HTML-safe), one trailing newline. FuzzResponseLines holds
// them to that.

// lineBufs recycles the buffers the lines are appended into; a buffer
// is written out, and so copied, before it goes back.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendBindingLine appends {"binding":{...}} and a newline.
func appendBindingLine(dst []byte, b hypo.Binding) []byte {
	dst = append(dst, `{"binding":`...)
	if b == nil {
		dst = append(dst, "null"...)
	} else {
		var arr [8]string
		keys := arr[:0]
		for k := range b {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendString(dst, b[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...)
}

// appendDoneLine appends {"done":true,"count":n,"dataVersion":v} and a
// newline.
func appendDoneLine(dst []byte, count int, version uint64) []byte {
	dst = append(dst, `{"done":true,"count":`...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	dst = append(dst, `,"dataVersion":`...)
	dst = strconv.AppendUint(dst, version, 10)
	return append(dst, "}\n"...)
}

// appendAskResponse appends {"result":r,"dataVersion":v} and a newline:
// the answer, and the base-EDB version it was read at (always 0 for a
// server without a live store).
func appendAskResponse(dst []byte, result bool, version uint64) []byte {
	dst = append(dst, `{"result":`...)
	dst = strconv.AppendBool(dst, result)
	dst = append(dst, `,"dataVersion":`...)
	dst = strconv.AppendUint(dst, version, 10)
	return append(dst, "}\n"...)
}

// appendString appends s as a JSON string. One of printable ASCII that
// encoding/json leaves alone goes in as it is; any other string — a
// quote, a backslash, <, > or &, a control byte, anything past ASCII —
// goes through json.Marshal, which escapes it the way the encoder does.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

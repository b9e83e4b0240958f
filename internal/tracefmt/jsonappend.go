package tracefmt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ---- Reflection-free JSON appenders ----
//
// The JSONL, span and Chrome writers build each record by appending
// bytes directly, with no encoding/json reflection. Their output must
// be byte-identical to encoding/json's for the same records (the tests
// keep that encoder as the oracle), so the helpers below follow its
// rules exactly.

// errUnsupportedValue marks a non-finite float, which JSON cannot
// carry; encoding/json rejects the same values.
var errUnsupportedValue = errors.New("tracefmt: unsupported value")

// appendFloat appends v as encoding/json encodes a float64: shortest
// 'f' form, or 'e' form when |v| < 1e-6 or |v| >= 1e21 with a
// two-digit negative exponent shortened (e-07 becomes e-7). NaN and
// ±Inf are an error.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if !finite(v) {
		return b, fmt.Errorf("%w: %s", errUnsupportedValue, strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a quoted JSON string. Plain printable
// ASCII without the characters encoding/json escapes (" \ and the HTML
// characters < > &) is copied as is; anything else goes through
// json.Marshal, so escapes, invalid UTF-8 and U+2028/U+2029 come out
// exactly as encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

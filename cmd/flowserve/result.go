package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/record"
)

// This file is the one encoder of result documents — {"id", "rows"} and,
// on request, "stats" — the response that grows with a job's output;
// writeResult (server.go) drives it. It appends the document in one pass
// over the records, with no []any row in between and no second pass to
// indent: the bytes are exactly those json.Encoder with SetIndent("", "  ")
// writes for the same document (the frozen reference in
// result_ref_test.go), except that a float encoding/json refuses, ±Inf or
// NaN, is written as null, as JSON.stringify writes it. "stats" still goes
// through encoding/json.

// appendResultHead appends the document up to the rows array's '['.
func appendResultHead(b []byte, id int64) []byte {
	b = append(b, "{\n  \"id\": "...)
	b = strconv.AppendInt(b, id, 10)
	return append(b, ",\n  \"rows\": ["...)
}

// appendResultRow appends row i of the rows array.
func appendResultRow(b []byte, i int, rec record.Record) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n    ["...)
	for f, v := range rec {
		if f > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = appendValue(b, v)
	}
	if len(rec) > 0 {
		b = append(b, "\n    "...)
	}
	return append(b, ']')
}

// appendResultTail closes a rows array of n rows and the document, with a
// "stats" member when perOp is not nil.
func appendResultTail(b []byte, n int, perOp []engine.OpStats) ([]byte, error) {
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')
	if perOp != nil {
		stats, err := json.Marshal(perOp)
		if err != nil {
			return b, err
		}
		buf := bytes.NewBuffer(append(b, ",\n  \"stats\": "...))
		if err := json.Indent(buf, stats, "  ", "  "); err != nil {
			return b, err
		}
		b = buf.Bytes()
	}
	return append(b, "\n}\n"...), nil
}

// appendValue appends one field as encoding/json writes the matching Go
// value: int64, float64, string, bool or nil.
func appendValue(b []byte, v record.Value) []byte {
	switch v.Kind() {
	case record.KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10)
	case record.KindFloat:
		return appendFloat(b, v.AsFloat())
	case record.KindString:
		return appendString(b, v.AsString())
	case record.KindBool:
		return strconv.AppendBool(b, v.AsBool())
	}
	return append(b, "null"...)
}

// appendFloat writes f as ES6 number-to-string does, which is what
// encoding/json does for a finite float64: shortest digits, exponent form
// below 1e-6 and from 1e21 up, and no zero padding in the exponent.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b
}

// plain marks the bytes appendString copies as they are: ASCII from the
// space up, save '"', '\\', '<', '>' and '&'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on: '"' and '\\' backslashed, \b \f \n \r \t by name, other
// control bytes and <, >, & as \u00XX, each invalid UTF-8 byte as \ufffd,
// and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

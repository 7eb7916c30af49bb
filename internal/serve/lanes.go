package serve

import (
	"bytes"
	"encoding/json"
	"math"
)

// Lanes is one vector register's lane values on the wire. A digits-only
// JSON array decodes with no reflection and a single allocation; any
// other shape (null, signs, fractions, exponents, values ≥ 2⁶⁴, strings,
// nesting) goes to encoding/json, whose values and error text a []uint64
// field would get. The exception: a failing Unmarshaler ends the decode, so
// a body with an earlier type error elsewhere reports the Lanes error.
type Lanes []uint64

func (l *Lanes) UnmarshalJSON(b []byte) error {
	if out, ok := digitsArray(b, *l); ok {
		*l = out
		return nil
	}
	return json.Unmarshal(b, (*[]uint64)(l))
}

// digitsArray decodes b in one pass if it is an array of decimal integers
// below 2⁶⁴: into out's array when big enough, as encoding/json does, and []
// as empty, not nil. encoding/json has validated b before it calls an
// Unmarshaler, so digits between separators always form one JSON number.
func digitsArray(b []byte, out Lanes) (Lanes, bool) {
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, false
	}
	n := 0
	if len(bytes.TrimSpace(b[1:len(b)-1])) > 0 {
		n = bytes.Count(b, []byte{','}) + 1
	}
	if out == nil || cap(out) < n {
		out = make(Lanes, 0, n)
	}
	out = out[:0]
	var v uint64
	for _, c := range b[1:] {
		switch d := uint64(c) - '0'; {
		case n == 0: // [] holding only whitespace
		case d <= 9 && v <= (math.MaxUint64-d)/10:
			v = v*10 + d
		case c == ',' || c == ']':
			out, v = append(out, v), 0
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			return nil, false // ≥ 2⁶⁴ too: encoding/json's error names the value
		}
	}
	return out, len(out) == n
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// lanesSeeds are values fragments on both sides of the fast path: the shapes
// it takes (digits, whitespace, [], the largest uint64) and the ones it hands
// to encoding/json (signs, fractions, exponents, 2⁶⁴, strings, null,
// nesting, objects), as array elements and as bare values.
var lanesSeeds = []string{
	`[-1]`, `-1`, `[1.5]`, `[1e3]`, `1e3`, `[18446744073709551615]`, `[18446744073709551616]`,
	`["7"]`, `"7"`, `null`, `[null]`, `[]`, `[ 1 ,2` + "\n" + `]`, `[[1]]`, `{}`, `[0]`, `[-0]`, `[1,-1,2]`,
}

// advanceBody wraps a values fragment in a one-record advance request.
func advanceBody(values string) []byte {
	return []byte(`{"records":[{"sets":[{"node":"src","reg":0,"values":` + values + `}],"dumps":[{"node":"total","reg":48}]}]}`)
}

// etlRecordBody is a 64-lane etl.fbp advance as a client sends it.
func etlRecordBody() []byte {
	r0, r1 := make([]uint64, 64), make([]uint64, 64)
	for l := range r0 {
		r0[l], r1[l] = uint64(l*977), uint64(3*l+1)
	}
	body, _ := json.Marshal(AdvanceRequest{Records: []PipelineRecord{{
		Sets:  []PipelineSet{{Node: "src", Reg: 0, Values: r0}, {Node: "src", Reg: 1, Values: r1}},
		Dumps: []PipelineRef{{Node: "total", Reg: 48}},
	}}})
	return body
}

// executeBody wraps a values fragment in a /v1/execute binary preload.
func executeBody(values string) []byte {
	return []byte(`{"binary":"AA==","backend":"racer","sets":[{"values":` + values + `}]}`)
}

// FuzzLanesDecode is the codec's differential oracle: any body decodes into
// AdvanceRequest and into Request exactly as it does into mirrors whose
// values are a plain []uint64 — the same accept or reject, the same error
// text (what a 400 body carries), and the same values, nil and empty kept
// apart. The mirror types are declared in the function so they carry the
// names encoding/json prints. The one tolerated difference is Lanes's
// documented one: a body that holds a type error before a malformed values
// array reports the values error.
func FuzzLanesDecode(f *testing.F) {
	for _, v := range lanesSeeds {
		f.Add(advanceBody(v))
		f.Add(executeBody(v))
	}
	f.Add(etlRecordBody())
	f.Add([]byte(`{"records":[{"sets":[{"node":"src","reg":"x","values":[-1]}]}]}`))
	f.Add([]byte(`{"binary":"AA==","elements":"x","sets":[{"values":[-1]}]}`))

	type PipelineSet struct {
		Node   string   `json:"node"`
		RFH    uint8    `json:"rfh"`
		VRF    uint8    `json:"vrf"`
		Reg    int      `json:"reg"`
		Values []uint64 `json:"values"`
	}
	type PipelineRecord struct {
		Sets  []PipelineSet `json:"sets,omitempty"`
		Dumps []PipelineRef `json:"dumps,omitempty"`
	}
	type AdvanceRequest struct {
		Records []PipelineRecord `json:"records"`
		Stats   bool             `json:"stats,omitempty"`
	}
	type RegisterSet struct {
		RFH    uint8    `json:"rfh"`
		VRF    uint8    `json:"vrf"`
		Reg    int      `json:"reg"`
		Values []uint64 `json:"values"`
	}
	type Request struct {
		Workload   string        `json:"workload,omitempty"`
		Binary     string        `json:"binary,omitempty"`
		Backend    string        `json:"backend"`
		Mode       string        `json:"mode,omitempty"`
		Elements   int           `json:"elements,omitempty"`
		Seed       int64         `json:"seed,omitempty"`
		Check      bool          `json:"check,omitempty"`
		DeadlineMS int64         `json:"deadline_ms,omitempty"`
		Sets       []RegisterSet `json:"sets,omitempty"`
		Dumps      []RegisterRef `json:"dumps,omitempty"`
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, body, &servedAdvance{}, &AdvanceRequest{})
		sameDecode(t, body, &servedExecute{}, &Request{})
	})
}

// servedAdvance and servedExecute name the server's request types where
// FuzzLanesDecode's mirrors shadow them.
type (
	servedAdvance = AdvanceRequest
	servedExecute = Request
)

// sameDecode decodes body into got (Lanes fields) and want (the []uint64
// mirror) and fails unless both decodes agree.
func sameDecode(t *testing.T, body []byte, got, want any) {
	t.Helper()
	gerr := json.NewDecoder(bytes.NewReader(body)).Decode(got)
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q into %T: Lanes error %v, []uint64 error %v", body, got, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() && !earlierTypeError(gerr, werr) {
			t.Fatalf("%q into %T: error text differs:\nLanes:    %v\n[]uint64: %v", body, got, gerr, werr)
		}
		return
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("%q into %T decodes differently:\nLanes:    %s\n[]uint64: %s", body, got, a, b)
	}
}

// earlierTypeError reports the one difference FuzzLanesDecode allows: the
// plain decode kept an earlier type error outside any values field, while
// Lanes stopped the decode at a later malformed values array.
func earlierTypeError(gerr, werr error) bool {
	var g, w *json.UnmarshalTypeError
	return errors.As(gerr, &g) && errors.As(werr, &w) &&
		strings.HasSuffix(g.Field, ".values") && !strings.HasSuffix(w.Field, ".values")
}

// TestLanesFastPathTaken: a digits-only array decodes with at most one
// allocation — the result itself — so a change that sends well-formed
// lanes back through encoding/json's reflective decode fails here.
func TestLanesFastPathTaken(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("[")
	for l := 0; l < 64; l++ {
		if l > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprint(&sb, uint64(l)*0x9e3779b97f4a7c15)
	}
	sb.WriteString("]")
	b := []byte(sb.String())
	var l Lanes
	allocs := testing.AllocsPerRun(100, func() {
		l = nil
		if err := l.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a 64-lane digits-only array took %.0f allocations, want ≤ 1", allocs)
	}
	var want []uint64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(l) != fmt.Sprint(want) {
		t.Fatalf("decoded %v, want %v", l, want)
	}
}

package main

import "testing"

// The verdict needs both halves: most pairs on one side, and medians
// further apart than the base's interquartile range.
func TestCompareVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(xs []float64, d float64, flip ...int) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		for _, i := range flip {
			out[i] = xs[i] - 1
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		head         []float64
		higherBetter bool
		ahead        int
		want         string
	}{
		{"far ahead in every pair", shift(base, 20), true, 10, "ahead"},
		{"far ahead, lower is better", shift(base, 20), false, 0, "behind"},
		{"ahead in 8 of 10", shift(base, 20, 0, 1), true, 8, "ahead"},
		{"ahead in 7 of 10", shift(base, 20, 0, 1, 2), true, 7, "unresolved"},
		{"every pair ahead, inside the IQR", shift(base, 1), true, 10, "unresolved"},
		{"level", base, true, 0, "unresolved"},
	} {
		c := compare(base, tc.head, tc.higherBetter)
		if c.verdict != tc.want || c.ahead != tc.ahead {
			t.Errorf("%s: verdict %q with %d ahead, want %q with %d", tc.name, c.verdict, c.ahead, tc.want, tc.ahead)
		}
	}
	if s := summarize([]float64{4, 1, 3, 2}); s != (summary{1.75, 2.5, 3.25}) {
		t.Errorf("summarize = %+v", s)
	}
}

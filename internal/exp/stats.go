package exp

import "sort"

// Percentile returns the p-quantile (0 <= p <= 1) of values by nearest rank,
// without mutating the input; 0 when values is empty. cmd/mpuload's latency
// report uses it.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

package main

import (
	"fmt"
	"sort"
)

// ops counts the operations a leg attempted and the ones that failed. An
// operation is one pverify invocation, one HTTP request or one driver round
// trip; a failed one is counted here and contributes no time to any sample.
type ops struct {
	attempted int
	failed    int
	reasons   []string // the first few failure messages, for the report
}

const maxReasons = 5

// failf counts one failed operation (the caller has already counted it as
// attempted) and keeps its reason.
func (o *ops) failf(format string, args ...any) {
	o.failed++
	if len(o.reasons) < maxReasons {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, r := range p.reasons {
		if len(o.reasons) < maxReasons {
			o.reasons = append(o.reasons, r)
		}
	}
}

// timing is a sample of one operation's measurements: record keeps the value
// of a successful operation and counts a failed one without keeping it.
type timing struct {
	ops
	values []float64
}

func (t *timing) record(v float64, err error) {
	t.attempted++
	if err != nil {
		t.failf("%v", err)
		return
	}
	t.values = append(t.values, v)
}

// summary is how a metric's sample is reported: the median with the count
// and range it was taken over.
type summary struct {
	N                int
	Median, Min, Max float64
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := sortedCopy(values)
	return summary{N: len(s), Median: percentile(s, 50), Min: s[0], Max: s[len(s)-1]}
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// percentile reads the p-th percentile off an ascending slice, interpolating
// between neighbours.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(values []float64) float64 { return percentile(sortedCopy(values), 50) }

// quartiles are the cut points of Python's statistics.quantiles(v, n=4)
// (the exclusive method), which is what the acceptance rule for this
// benchmark is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		v := percentile(s, 50)
		return v, v, v
	}
	cut := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

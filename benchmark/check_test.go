package main

import (
	"net/http"
	"testing"
)

const safeReport = `{"stats":{"distinct_states":18,"transitions":31,"truncated":false},"checkpointed":false,"violations":[],"ok":true}`

// TestFailuresAreCountedAndNotTimed feeds the checkers one good operation and
// the four ways an operation goes wrong — a verdict that is not the expected
// one, a 429, a non-zero exit code, a state count that moved — and holds the
// accounting to its rule: every failure counts against the attempts and
// contributes no time.
func TestFailuresAreCountedAndNotTimed(t *testing.T) {
	want := verdictWant{verdict: safe, states: 18, transitions: 31}
	good := process{exit: 0, stdout: []byte(safeReport)}
	verdict := func(want verdictWant, p process, parallel bool) error {
		_, err := checkVerdict(want, p, parallel)
		return err
	}
	if err := verdict(want, good, false); err != nil {
		t.Fatalf("a correct search was refused: %v", err)
	}
	if err := checkStatus(http.StatusAccepted, http.StatusAccepted, nil); err != nil {
		t.Fatalf("a 202 was refused: %v", err)
	}

	failures := map[string]error{
		"wrong expectation":    verdict(verdictWant{verdict: "unsafe"}, process{exit: 1, stdout: []byte(safeReport)}, false),
		"429":                  checkStatus(http.StatusTooManyRequests, http.StatusAccepted, nil),
		"non-zero exit":        verdict(want, process{exit: 1, stdout: []byte(safeReport)}, false),
		"state-count mismatch": verdict(verdictWant{verdict: safe, states: 19, transitions: 31}, good, false),
		"transition mismatch":  verdict(verdictWant{verdict: safe, states: 18, transitions: 30}, good, false),
		"suspend that did not": checkSuspended(good),
	}
	var sample timing
	sample.record(1.5, nil)
	for name, err := range failures {
		if err == nil {
			t.Errorf("%s: accepted as correct", name)
		}
		sample.record(99, err)
	}
	if sample.attempted != 1+len(failures) || sample.failed != len(failures) {
		t.Errorf("attempted %d, failed %d; want %d, %d", sample.attempted, sample.failed, 1+len(failures), len(failures))
	}
	if len(sample.values) != 1 || sample.values[0] != 1.5 {
		t.Errorf("timing sample %v; want only the successful operation's 1.5", sample.values)
	}
	if len(sample.reasons) == 0 {
		t.Error("no failure reason kept for the report")
	}

	// A parallel search is held to the state count but not the transitions.
	if err := verdict(verdictWant{verdict: safe, states: 18, transitions: 30}, good, true); err != nil {
		t.Errorf("parallel search refused on its transition count: %v", err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{9, 1, 3, 2, 5, 4, 7, 6, 20, 8})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v; want 2.75 5.5 8.25", q1, q2, q3)
	}
}

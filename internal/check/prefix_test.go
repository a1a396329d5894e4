package check

import (
	"reflect"
	"testing"

	"pgo/internal/core"
)

// White-box tests for the parent-linked counterexample prefix (engine.go)
// and for its one round trip through a checkpoint.

func stepOf(m int) TraceStep {
	return TraceStep{Machine: core.MachineID(m), Type: "M", Delays: m % 3}
}

func TestPrefixLinks(t *testing.T) {
	var root *prefix
	if root.len() != 0 {
		t.Fatalf("nil prefix has length %d", root.len())
	}
	if got := root.steps(); len(got) != 0 {
		t.Fatalf("nil prefix materializes to %v, want the empty schedule", got)
	}

	one := root.extend(stepOf(1))
	if got := one.steps(); !reflect.DeepEqual(got, []TraceStep{stepOf(1)}) {
		t.Fatalf("one step: got %v", got)
	}

	const n = 300
	var want []TraceStep
	p := root
	for i := 1; i <= n; i++ {
		p = p.extend(stepOf(i))
		want = append(want, stepOf(i))
	}
	if p.len() != n {
		t.Fatalf("length %d after %d extends", p.len(), n)
	}
	if got := p.steps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d steps came back out of order or altered", n)
	}
	if got := prefixOf(want).steps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("prefixOf does not invert steps")
	}

	// Siblings share the parent's chain and nothing else.
	left, right := one.extend(stepOf(2)), one.extend(stepOf(3))
	if got := left.steps(); !reflect.DeepEqual(got, []TraceStep{stepOf(1), stepOf(2)}) {
		t.Fatalf("left child: got %v", got)
	}
	if got := right.steps(); !reflect.DeepEqual(got, []TraceStep{stepOf(1), stepOf(3)}) {
		t.Fatalf("right child: got %v", got)
	}
	if got := one.steps(); len(got) != 1 {
		t.Fatalf("extending a prefix changed it: %v", got)
	}

	// The materialized slice is the caller's: scribbling on it (and growing
	// it) must not reach the links.
	mine := left.steps()
	mine[0], mine[1] = stepOf(9), stepOf(9)
	_ = append(mine, stepOf(9))
	if got := left.steps(); !reflect.DeepEqual(got, []TraceStep{stepOf(1), stepOf(2)}) {
		t.Fatalf("mutating a materialized schedule reached the links: %v", got)
	}
}

// TestResumeDeepFrontier interrupts usb-hsm late enough that the frontier
// holds schedules over a hundred steps deep — the shape where a node's prefix
// is a long chain shared with its siblings — and checks the checkpoint round
// trip end to end: every serialized node carries exactly its schedule (length
// = depth), replays to the recorded state hash, and the resumed run reports
// the Stats of the run that was never interrupted.
func TestResumeDeepFrontier(t *testing.T) {
	prog := compileWB(t, "usb-hsm")
	opts := Options{Mode: DelayBounded, Bound: 1}
	baseline, err := Explore(prog, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.StoreDir = t.TempDir()
	opts.CheckpointStop = baseline.Stats.DistinctStates * 3 / 4
	partial, err := Explore(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Checkpointed {
		t.Fatalf("run did not suspend (stop at %d of %d states)", opts.CheckpointStop, baseline.Stats.DistinctStates)
	}

	fr, err := readFrontier(opts.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	e := &explorer{prog: prog, opts: opts}
	deepest := 0
	for i := range fr.Nodes {
		cn := &fr.Nodes[i]
		if len(cn.Trace) != cn.Depth {
			t.Fatalf("frontier node %d: schedule of %d steps at depth %d", i, len(cn.Trace), cn.Depth)
		}
		if _, err := e.replayNode(cn); err != nil {
			t.Fatalf("frontier node %d (depth %d): %v", i, cn.Depth, err)
		}
		if cn.Depth > deepest {
			deepest = cn.Depth
		}
	}
	if deepest < 100 {
		t.Fatalf("deepest frontier node is %d steps (of %d nodes); the test needs ≥ 100", deepest, len(fr.Nodes))
	}

	opts.CheckpointStop = 0
	resumed, err := Resume(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := resumed.Stats, baseline.Stats
	got.Elapsed, want.Elapsed = 0, 0
	if got != want {
		t.Errorf("resumed stats diverge from the uninterrupted run:\n  resumed:  %+v\n  baseline: %+v", got, want)
	}
	if len(resumed.Violations) != len(baseline.Violations) {
		t.Errorf("resumed run reports %d violations, uninterrupted %d", len(resumed.Violations), len(baseline.Violations))
	}
}

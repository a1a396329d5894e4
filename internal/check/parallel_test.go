package check_test

import (
	"testing"

	"pgo/internal/check"
	"pgo/internal/core"
)

// The parallel search must discover exactly the same distinct states as the
// serial search (the visited discipline is identical; only the expansion
// order differs).
func TestParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"pingpong", "elevator", "switchled"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := compileSample(t, name)
			serial, err := check.Explore(prog, check.Options{
				Mode: check.DelayBounded, Bound: 2, MaxStates: 2_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := check.Explore(prog, check.Options{
				Mode: check.DelayBounded, Bound: 2, MaxStates: 2_000_000, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.DistinctStates != parallel.Stats.DistinctStates {
				t.Fatalf("states differ: serial %d, parallel %d",
					serial.Stats.DistinctStates, parallel.Stats.DistinctStates)
			}
			if serial.Errored() != parallel.Errored() {
				t.Fatalf("verdicts differ: serial %v, parallel %v",
					serial.Errored(), parallel.Errored())
			}
		})
	}
}

func TestParallelFindsBug(t *testing.T) {
	prog := compileSample(t, "elevator-buggy")
	res, err := check.Explore(prog, check.Options{
		Mode: check.DelayBounded, Bound: 2, Workers: -1, StopAtFirstError: true, MaxStates: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Errored() {
		t.Fatal("parallel search missed the seeded bug")
	}
	if res.FirstViolation().Err.Kind != core.ErrUnhandled {
		t.Fatalf("wrong violation: %v", res.FirstViolation())
	}
	// The reported trace must replay (the schedule is self-contained even
	// though workers interleave).
	v := res.FirstViolation()
	g := core.NewGlobal(prog, nil)
	if _, err := g.CreateMain(); err != nil {
		t.Fatal(err)
	}
	for i, step := range v.Trace {
		out := g.RunToSchedPoint(step.Machine, &core.FixedChoices{Bits: step.Choices}, 0)
		if out.Kind == core.OutError {
			if i != len(v.Trace)-1 || out.Err.Kind != v.Err.Kind {
				t.Fatalf("replay diverged at step %d: %v", i+1, out.Err)
			}
			return
		}
	}
	t.Fatal("replay did not reproduce the violation")
}

func TestParallelWithGraph(t *testing.T) {
	prog := compileSample(t, "pingpong")
	res, err := check.Explore(prog, check.Options{
		Mode: check.DelayBounded, Bound: 2, Workers: 4, CollectGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.Len() != res.Stats.DistinctStates {
		t.Fatalf("graph nodes %v vs states %d", res.Graph.Len(), res.Stats.DistinctStates)
	}
}

func TestParallelRespectsMaxStates(t *testing.T) {
	prog := compileSample(t, "switchled")
	res, err := check.Explore(prog, check.Options{
		Mode: check.DelayBounded, Bound: 3, Workers: 4, MaxStates: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("cap not honored")
	}
	// Workers may overshoot slightly while draining, but not wildly.
	if res.Stats.DistinctStates > 1200 {
		t.Fatalf("overshoot: %d states against cap 1000", res.Stats.DistinctStates)
	}
}

// Progress must observe a strictly increasing distinct-state count even
// with many workers racing to report, and the MaxStates cap must trip on
// the exact insertion that reaches it (monotone add-and-count). Run under
// -race in CI.
func TestParallelProgressMonotone(t *testing.T) {
	prog := compileSample(t, "switchled")
	var got []int
	res, err := check.Explore(prog, check.Options{
		Mode: check.DelayBounded, Bound: 3, Workers: 8, MaxStates: 1500,
		ProgressEvery: -1, // unthrottled: stress the monotonicity guard
		Progress:      func(n int) { got = append(got, n) }, // serialized by the explorer
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("progress callback never invoked")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("progress not monotone at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if !res.Stats.Truncated {
		t.Fatal("cap not honored")
	}
	if res.Stats.DistinctStates < 1500 {
		t.Fatalf("stopped before the cap: %d states", res.Stats.DistinctStates)
	}
}

func TestSimulateQuiescesOrErrors(t *testing.T) {
	good := compileSample(t, "pingpong")
	res, err := check.Simulate(good, check.SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent || res.Violation != nil {
		t.Fatalf("pingpong walk: %+v", res)
	}

	bad := compileSample(t, "german-buggy")
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		res, err := check.Simulate(bad, check.SimOptions{Seed: seed, MaxSteps: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			if res.Violation.Err.Kind != core.ErrAssert {
				t.Fatalf("unexpected violation kind: %v", res.Violation.Err)
			}
			found = true
		}
	}
	if !found {
		t.Log("random walks did not hit the seeded bug in 50 seeds (acceptable: simulation is best-effort)")
	}
}

// TestParallelPORChaosCheckpointRace drives the shared successor core
// through the parallel explorer with everything on at once — partial-order
// reduction, a chaos fault budget, and periodic checkpointing — the
// combination where the ample pre-claim check, the fault branches, and the
// checkpoint drain protocol all interleave. Run under -race in CI, it
// asserts the search never panics, that the ClaimRaces counter is wired
// (zero in the serial twin, merely recorded in the parallel one — races are
// scheduling-dependent), and that the verdict and the set of violations
// match the serial explorer's. The distinct-state count is not compared
// with the serial reduced run: the visited-set cycle proviso accepts a
// reduction or not depending on which successors were claimed first, so the
// reduced state set depends on expansion order (boundedbuffer: serial 5828,
// parallel sometimes 5829). What holds is that a reduced search, in any
// order, visits a subset of the unreduced one.
func TestParallelPORChaosCheckpointRace(t *testing.T) {
	for _, name := range []string{"elevator-buggy", "boundedbuffer", "ring"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := compileSample(t, name)
			base := check.Options{
				Mode: check.DelayBounded, Bound: 2, MaxStates: 2_000_000,
				POR: true, Faults: 1, FaultKinds: check.DropFaults,
			}
			serial, err := check.Explore(prog, base)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.ClaimRaces != 0 {
				t.Fatalf("serial search counted %d claim races, want 0", serial.Stats.ClaimRaces)
			}
			popts := base
			popts.Workers = 4
			popts.StoreDir = t.TempDir()
			popts.CheckpointEvery = 64
			par, err := check.Explore(prog, popts)
			if err != nil {
				t.Fatal(err)
			}
			if par.Stats.ClaimRaces < 0 {
				t.Fatalf("negative claim-race count: %d", par.Stats.ClaimRaces)
			}
			t.Logf("states=%d reduced=%d claimRaces=%d workers=%d",
				par.Stats.DistinctStates, par.Stats.ReducedStates, par.Stats.ClaimRaces, par.Stats.Workers)
			if par.Stats.Workers != 4 {
				t.Errorf("recorded %d workers, want 4", par.Stats.Workers)
			}
			if serial.Errored() != par.Errored() {
				t.Fatalf("verdicts differ: serial %v, parallel %v", serial.Errored(), par.Errored())
			}
			if got, want := violationSet(par), violationSet(serial); !equalStrings(got, want) {
				t.Fatalf("violation sets differ:\n  serial:   %v\n  parallel: %v", want, got)
			}
			full := base
			full.POR = false
			unreduced, err := check.Explore(prog, full)
			if err != nil {
				t.Fatal(err)
			}
			if par.Stats.DistinctStates > unreduced.Stats.DistinctStates {
				t.Fatalf("reduced parallel search saw %d states, more than the unreduced search's %d",
					par.Stats.DistinctStates, unreduced.Stats.DistinctStates)
			}
		})
	}
}

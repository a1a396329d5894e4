package check_test

import (
	"os"
	"strings"
	"testing"

	"pgo/internal/check"
	"pgo/internal/compile"
	"pgo/internal/core"
	"pgo/internal/ir"
	"pgo/internal/psamples"
	"pgo/internal/trace"
)

// Chaos-mode tests: the fault-sensitivity sample, the pinned expectations
// for the shipped samples, and the cross-scheme/cross-explorer agreement
// with fault injection on.

func compileRelay(t *testing.T) *ir.Program {
	t.Helper()
	src, err := os.ReadFile("../../testdata/relay.p")
	if err != nil {
		t.Fatalf("reading relay sample: %v", err)
	}
	prog, diags, err := compile.Source("relay", string(src))
	if err != nil {
		t.Fatalf("compile relay: %v\n%s", err, diags.String())
	}
	return prog
}

// relay.p is safe under every fault-free schedule but assumes a reliable
// transport: dropping one message makes its assertion fail. Chaos mode
// with a budget of one fault must find that defect; the fault-free search
// must not.
func TestChaosFindsRelayDefect(t *testing.T) {
	prog := compileRelay(t)

	clean, err := check.Explore(prog, check.Options{Mode: check.DelayBounded, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Errored() {
		t.Fatalf("fault-free exploration found a violation: %v", clean.FirstViolation())
	}

	res, err := check.Explore(prog, check.Options{
		Mode:             check.DelayBounded,
		Bound:            2,
		Faults:           1,
		FaultKinds:       check.DropFaults,
		StopAtFirstError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.FirstViolation()
	if v == nil {
		t.Fatal("chaos exploration with one drop fault found no violation")
	}
	if v.Err.Kind != core.ErrAssert {
		t.Fatalf("violation kind = %v, want ErrAssert", v.Err.Kind)
	}
	drops := 0
	for _, s := range v.Trace {
		if s.Fault == check.FaultDrop {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("trace has %d drop fault steps, want exactly 1:\n%v", drops, v.Trace)
	}
	if res.Stats.FaultSteps == 0 {
		t.Fatal("Stats.FaultSteps is 0 on a chaos run")
	}
}

// The drop counterexample replays deterministically: the rendered trace is
// pinned so schedule regressions (or replay divergence) surface as a diff.
func TestChaosRelayGoldenTrace(t *testing.T) {
	prog := compileRelay(t)
	res, err := check.Explore(prog, check.Options{
		Mode:             check.DelayBounded,
		Bound:            2,
		Faults:           1,
		FaultKinds:       check.DropFaults,
		StopAtFirstError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.FirstViolation()
	if v == nil {
		t.Fatal("no violation to render")
	}
	var b strings.Builder
	if err := trace.Render(prog, v, &b); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	const golden = `counterexample: assertion failed in machine Receiver#2 (state Verify) at 49:7
schedule (8 steps):
   1. Sender#1  @Init          creates Receiver#2
   2. [1 delays]
   2. Sender#1  @Init          sends Req to Receiver#2
   3. Receiver#2  ⚡fault         loses Req in transit
   4. [1 delays]
   4. Receiver#2  @Counting      blocks
   5. Sender#1  @Init          sends Req to Receiver#2
   6. Receiver#2  @Counting      blocks
      └ consumed Req
   7. Sender#1  @Init          sends Check to Receiver#2
   8. Receiver#2  Counting→Verify ERROR: assertion failed in machine Receiver#2 (state Verify) at 49:7
`
	if got := b.String(); got != golden {
		t.Errorf("rendered trace diverges from golden:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// Pinned chaos expectations for the shipped samples. Drop tolerance is the
// interesting axis: the request/response samples survive a lost message
// (they block harmlessly), while the protocol samples legitimately assume
// reliable transport. Crash and dup are documented residuals for every
// sample: after a crash any further send to the machine is the paper's
// send-to-deleted error, and a forced duplicate is exactly the hazard the
// ⊕ dedup semantics exists to suppress — both are real findings about the
// samples' environment assumptions, not checker noise.
func TestChaosSampleExpectations(t *testing.T) {
	cases := []struct {
		sample string
		kinds  check.FaultSet
		clean  bool
	}{
		{"pingpong", check.DropFaults, true},
		{"elevator", check.DropFaults, true},
		{"switchled", check.DropFaults, true},
		{"ring", check.DropFaults, true},
		{"boundedbuffer", check.DropFaults, true},
		{"german", check.DropFaults, false},
		{"usb-hsm", check.DropFaults, false},
		// The protocols corpus: 2PC blocks (never splits) under loss, an
		// election without messages elects nobody, and a lost steal request
		// just idles a worker — but a dropped shard write is a stale read.
		{"twophase", check.DropFaults, true},
		{"raft", check.DropFaults, true},
		{"worksteal", check.DropFaults, true},
		{"shardkv", check.DropFaults, false},
		// Documented residuals: no sample survives a machine crash or a
		// forced duplicate.
		{"pingpong", check.CrashFaults, false},
		{"pingpong", check.DupFaults, false},
		{"elevator", check.CrashFaults, false},
		{"elevator", check.DupFaults, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.sample+"/"+tc.kinds.String(), func(t *testing.T) {
			t.Parallel()
			s, ok := psamples.ByName(tc.sample)
			if !ok {
				t.Fatalf("no sample %s", tc.sample)
			}
			prog, diags, err := compile.Source(tc.sample, s.Source)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, diags.String())
			}
			res, err := check.Explore(prog, check.Options{
				Mode:             check.DelayBounded,
				Bound:            2,
				Faults:           1,
				FaultKinds:       tc.kinds,
				MaxStates:        500_000,
				StopAtFirstError: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := !res.Errored(); got != tc.clean {
				t.Errorf("chaos(%s) clean = %v, want %v (first: %v)",
					tc.kinds, got, tc.clean, res.FirstViolation())
			}
		})
	}
}

// Hashed and exact fingerprints, and the serial and parallel explorers,
// must agree on the distinct-state count with chaos on — the fault-qualified
// visited keys behave identically in all four combinations. The two serial
// combinations must also agree on the fault-step count. The parallel ones
// need not: FaultSteps, like Transitions, counts work per expanded node, and
// a parallel search re-expands a state it first claimed at a higher delay
// count when a cheaper path lands later — how often depends on worker timing.
func TestChaosSchemeAndSchedulerAgreement(t *testing.T) {
	for _, name := range []string{"pingpong", "switchled"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, ok := psamples.ByName(name)
			if !ok {
				t.Fatalf("no sample %s", name)
			}
			prog, diags, err := compile.Source(name, s.Source)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, diags.String())
			}
			type combo struct {
				exact   bool
				workers int
			}
			var base *check.Result
			for _, c := range []combo{{false, 1}, {true, 1}, {false, 4}, {true, 4}} {
				res, err := check.Explore(prog, check.Options{
					Mode:              check.DelayBounded,
					Bound:             2,
					Faults:            1,
					Workers:           c.workers,
					ExactFingerprints: c.exact,
				})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Stats.DistinctStates != base.Stats.DistinctStates {
					t.Errorf("exact=%v workers=%d: distinct states %d, want %d",
						c.exact, c.workers, res.Stats.DistinctStates, base.Stats.DistinctStates)
				}
				if c.workers == 1 && res.Stats.FaultSteps != base.Stats.FaultSteps {
					t.Errorf("exact=%v workers=%d: fault steps %d, want %d",
						c.exact, c.workers, res.Stats.FaultSteps, base.Stats.FaultSteps)
				}
			}
		})
	}
}

// The fault budget strictly widens the search: everything reachable with
// faults=0 stays reachable (and counted) with faults=1.
func TestFaultBudgetMonotone(t *testing.T) {
	prog := compileRelay(t)
	s0, err := check.Explore(prog, check.Options{Mode: check.DelayBounded, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := check.Explore(prog, check.Options{Mode: check.DelayBounded, Bound: 2, Faults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats.DistinctStates < s0.Stats.DistinctStates {
		t.Errorf("faults=1 found %d states, fewer than faults=0's %d",
			s1.Stats.DistinctStates, s0.Stats.DistinctStates)
	}
}

// Every explorer mode honors the fault budget, not just delay-bounded.
func TestChaosAcrossModes(t *testing.T) {
	prog := compileRelay(t)
	for _, mode := range []check.Mode{check.DepthBounded, check.DelayBounded, check.RoundRobinDelay} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			bound := 2
			if mode == check.DepthBounded {
				bound = 12
			}
			res, err := check.Explore(prog, check.Options{
				Mode:             mode,
				Bound:            bound,
				Faults:           1,
				FaultKinds:       check.DropFaults,
				StopAtFirstError: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Errored() {
				t.Errorf("%v with one drop fault missed the relay defect", mode)
			}
		})
	}
}

func TestParseFaultSet(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want check.FaultSet
		bad  bool
	}{
		{"all", check.AllFaults, false},
		{"crash", check.CrashFaults, false},
		{"drop,dup", check.DropFaults | check.DupFaults, false},
		{" crash , drop ", check.CrashFaults | check.DropFaults, false},
		{"", 0, true},
		{"bogus", 0, true},
	} {
		got, err := check.ParseFaultSet(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseFaultSet(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseFaultSet(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

package main

import (
	"context"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesManifest keeps the harness's own lists and
// BENCHMARK.json from drifting apart: same workloads with the same reasons,
// same metrics with the same units and directions, in the same order.
func TestRegistryMatchesManifest(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := man.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, d)
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, d.Name)
			}
			if bounded && (got.Bound <= 0 || got.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, got.Bound)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd, true)
	same("per_layer", man.PerLayer, perLayer, false)
	if want := []string{"bash", "benchmark/run.sh"}; len(man.Command) != 2 || man.Command[0] != want[0] || man.Command[1] != want[1] {
		t.Errorf("command = %v, want %v", man.Command, want)
	}
}

// TestSmoke runs all eight workloads, untraced and traced, at -smoke sizes
// against freshly built binaries, and holds each run to the output contract:
// every metric of its list exactly once with its unit, nothing else, and no
// failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pverify and pserve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sz := smokeSizes()
	e, setup, err := timedSetUp(ctx, root, t.TempDir(), 1, sz.setups)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		untraced, err := runWorkload(ctx, e, w, 1, sz, setup)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := traceWorkload(ctx, e, w, 1, sz, filepath.Join(e.dir, "trace.json"))
		if err != nil {
			t.Fatalf("%s -trace: %v", w.name, err)
		}
		for _, run := range []struct {
			kind string
			res  *result
			defs []metricDef
		}{{"end-to-end", untraced, endToEnd}, {"per-layer", traced, perLayer}} {
			if !run.res.Correct || run.res.Failed != 0 || run.res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d: %v", w.name, run.kind, run.res.Correct, run.res.Attempted, run.res.Failed, run.res.notes)
			}
			if len(run.res.Metrics) != len(run.defs) {
				t.Errorf("%s %s: %d metrics emitted, want %d", w.name, run.kind, len(run.res.Metrics), len(run.defs))
			}
			for _, d := range run.defs {
				m, ok := run.res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				case run.kind == "end-to-end" && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

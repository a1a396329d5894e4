package main

import "pgo/internal/psamples"

// metricDef names one metric. The regression bounds live only in
// BENCHMARK.json; the smoke test checks that the two lists do not drift.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of pverify, pserve or a hosted driver
// sees. Every run of every workload reports all of them: the workload's own
// leg measures the ones it is about, the reference legs the rest (see
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"verdict_s", "s", "lower"},
	{"verdict_par_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"requests_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"event_roundtrip_us", "us", "lower"},
}

// perLayer are the cost-model metrics of the -trace run, named after the
// module they measure. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"compile.source_ms", "ms", "lower"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"analysis.por_independence_ms", "ms", "lower"},
	{"check.setup_ms", "ms", "lower"},
	{"core.step_ns", "ns", "lower"},
	{"core.step_allocs", "count", "lower"},
	{"core.step_bytes", "B", "lower"},
	{"core.clone_ns", "ns", "lower"},
	{"core.hash_ns", "ns", "lower"},
	{"core.enabled_ns", "ns", "lower"},
	{"store.claim_ns", "ns", "lower"},
	{"store.claim_dup_ns", "ns", "lower"},
	{"store.claim_spill_ns", "ns", "lower"},
	{"store.flush_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.chunks", "count", "lower"},
	{"store.spilled_entries", "count", "lower"},
	{"store.disk_bytes", "B", "lower"},
	{"check.explore_s", "s", "lower"},
	{"check.states", "count", "lower"},
	{"check.transitions", "count", "lower"},
	{"check.search_nodes", "count", "lower"},
	{"check.max_depth", "count", "lower"},
	{"check.states_per_s", "1/s", "higher"},
	{"check.ns_per_transition", "ns", "lower"},
	{"check.allocs_per_transition", "count", "lower"},
	{"check.bytes_per_transition", "B", "lower"},
	{"check.self_ns_per_transition", "ns", "lower"},
	{"check.layer_sum_share", "%", "higher"},
	{"check.reduced_share", "%", "higher"},
	{"check.ample_skips", "count", "higher"},
	{"check.par_speedup", "x", "higher"},
	{"check.claim_races", "count", "lower"},
	{"check.checkpoint_bytes", "B", "lower"},
	{"check.resume_restore_ms", "ms", "lower"},
	{"live.check_ms", "ms", "lower"},
	{"live.graph_nodes", "count", "lower"},
	{"live.graph_edges", "count", "lower"},
	{"abstract.analyze_s", "s", "lower"},
	{"abstract.markings", "count", "lower"},
	{"abstract.reduced", "count", "higher"},
	{"abstract.places", "count", "lower"},
	{"abstract.markings_per_s", "1/s", "higher"},
	{"pverify.process_overhead_ms", "ms", "lower"},
	{"pverify.cpu_s", "s", "lower"},
	{"server.http_ns", "ns", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.loopback_us", "us", "lower"},
	{"server.send_ns", "ns", "lower"},
	{"server.create_ns", "ns", "lower"},
	{"server.events_processed", "count", "lower"},
	{"server.bursts", "count", "lower"},
	{"server.events_per_burst", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"server.quiesce_ms", "ms", "lower"},
	{"server.drain_ms", "ms", "lower"},
	{"server.rss_per_machine_bytes", "B", "lower"},
	{"runtime.send_ns", "ns", "lower"},
	{"runtime.create_ns", "ns", "lower"},
	{"runtime.handwritten_roundtrip_us", "us", "lower"},
	{"runtime.overhead_x", "x", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// verifySpec is one pverify search with its known answer.
type verifySpec struct {
	program string   // generated input file the process is pointed at
	flags   []string // pverify flags before the program
	// resume, when non-nil, makes the search a pair of processes: the first
	// gets a fresh -store-dir and must suspend with exit code 3, the second
	// is `pverify -resume <dir>` with these flags and must reach the verdict.
	resume []string
	// parallel alternates -workers 1 with -workers nproc; the parallel runs
	// feed verdict_par_s.
	parallel bool
	want     verdictWant
	// smokeFlags/smokeResume replace flags/resume at -smoke sizes, where the
	// program is pingpong and the counts are only required to repeat.
	smokeFlags, smokeResume []string
}

// verdictWant is the known answer of a search. The counts are pinned from
// the sizing runs recorded in README.md, never taken from the run being
// checked; 0 means "only required to be identical on every iteration".
type verdictWant struct {
	verdict     string // "safe", "unsafe" — psamples.ModeVerdict spelling
	states      int    // distinct_states, identical serial and parallel
	transitions int    // serial runs only: re-expansions make it schedule-dependent in parallel
	markings    int    // -abstract
}

// leg names the part of the system a workload is about.
type leg int

const (
	legVerify  leg = iota // pverify processes; workload.verify says which search
	legIngress            // pserve, one event per request (elevator)
	legFanout             // pserve, 256 events per request (ring)
	legHost               // in-process runtime hosting the switch-and-LED driver
)

// workload is one row of the benchmark. Its own leg gets the run's time
// budget; the other legs run a short fixed reference load (refVerify, an
// ingress loop, a few round-trip batches), so that every end-to-end metric
// is measured, with the same meaning, on every run.
type workload struct {
	name, why string
	own       leg
	verify    *verifySpec // the search of a legVerify workload
}

var safe = string(psamples.VerdictSafe)

// The pinned counts below were measured at sizing time (README.md, "Workloads")
// with the commit this benchmark was added on; they are the correctness
// check for every later commit.
var (
	german2Bound4 = verdictWant{verdict: safe, states: 128749, transitions: 616304}

	refVerify = verifySpec{
		program: "german2.p", flags: []string{"-bound", "3"}, parallel: true,
		want:       verdictWant{verdict: safe, states: 71578, transitions: 220937},
		smokeFlags: []string{"-bound", "2"},
	}
)

var workloads = []workload{
	{
		name: "verify-german",
		why:  "small states, shallow schedules: the explorer hot loop (step, claim, malloc/GC); the only workload whose own leg runs the parallel driver",
		verify: &verifySpec{
			program: "german2.p", flags: []string{"-bound", "4"}, parallel: true,
			want:       german2Bound4,
			smokeFlags: []string{"-bound", "2"},
		},
	},
	{
		name: "verify-usb",
		why:  "fat machines and 300-deep schedules: trace-prefix copy, GC and PORIndependence set-up dominate, core step does not",
		verify: &verifySpec{
			program: "usb-dsm.p", flags: []string{"-bound", "1"},
			want:       verdictWant{verdict: safe, states: 110489, transitions: 237512},
			smokeFlags: []string{"-bound", "1"},
		},
	},
	{
		name: "verify-live",
		why:  "depth-bounded search with the state graph retained and live.Check on it: the antichain visited rule and the memory workload",
		verify: &verifySpec{
			program: "german4.p", flags: []string{"-mode", "depth", "-bound", "15", "-liveness"},
			want:       verdictWant{verdict: safe, states: 92270, transitions: 111981},
			smokeFlags: []string{"-mode", "depth", "-bound", "8", "-liveness"},
		},
	},
	{
		name: "verify-resume",
		why:  "same search as verify-german through the disk tier: spill, bloom/disk lookups, checkpoint write, frontier restore; the pair isolates the store",
		verify: &verifySpec{
			program:     "german2.p",
			flags:       []string{"-bound", "4", "-store-shards", "8", "-store-mem", "2048", "-checkpoint-stop", "60000"},
			resume:      []string{"-store-mem", "2048"},
			want:        german2Bound4,
			smokeFlags:  []string{"-bound", "2", "-store-shards", "8", "-store-mem", "4", "-checkpoint-stop", "10"},
			smokeResume: []string{"-store-mem", "4"},
		},
	},
	{
		name: "abstract-twophase",
		why:  "counter-abstraction coverability (own interpreter and Karp-Miller loop): nothing in core or check runs",
		verify: &verifySpec{
			program: "twophase3.p", flags: []string{"-abstract"},
			want:       verdictWant{verdict: string(mustExpect("twophase").Abstract), markings: 32788},
			smokeFlags: []string{"-abstract"},
		},
	},
	{
		name: "serve-ingress",
		why:  "one event per HTTP request over a real socket, closed loop: socket, net/http and JSON dominate, the host is noise",
		own:  legIngress,
	},
	{
		name: "serve-fanout",
		why:  "256 internal events per HTTP request: shard loops, cross-shard sends and machine creation dominate, ingress is noise",
		own:  legFanout,
	},
	{
		name: "host-switchled",
		why:  "the paper's 4.1 experiment: in-process runtime hosting the erased switch-and-LED driver, one round trip per event",
		own:  legHost,
	},
}

func mustExpect(sample string) psamples.Expectation {
	e, ok := psamples.ExpectationFor(sample)
	if !ok {
		panic("benchmark: no verdict-matrix row for " + sample)
	}
	return e
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

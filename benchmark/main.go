// Command benchmark is the repo's benchmark harness: it builds pverify and
// pserve, generates their inputs, runs the eight workloads of BENCHMARK.json
// end to end with tracing off, checks every output against its known answer,
// and prints every metric by name with its unit. With -trace 1 it instead
// produces the per-layer cost model from its own spans around the calls into
// each module. README.md in this directory says what is measured and why.
//
// Usage (from anywhere inside the module):
//
//	go run ./benchmark -seed 1                      every workload
//	go run ./benchmark -workload verify-usb -trace 1
//	go run ./benchmark -repeat 10                   spreads against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// sizes are the knobs that differ between a measured run and the smoke test.
type sizes struct {
	smoke bool
	// seconds is the measuring time of one run. The workload's own leg gets
	// ownShare of it; the reference legs are fixed-size and take the rest.
	seconds time.Duration
	// Reference legs: verify iterations (serial + parallel each), the
	// ingress loop's length, and the number of round-trip batches.
	refVerifyIters int
	refIngress     time.Duration
	refHostBatches int
	// minIters is the least number of iterations of an iterated own leg,
	// whatever the budget.
	minIters    int
	setups      int // times set-up is repeated for setup_s
	fanoutRings int // rounds per fan-out iteration
	ringSize    int // nodes grown by one fan-out create
	hostBatch   int // round trips per timed batch
	// Smoke sizes are counts, not durations, so the smoke test does the
	// same work on any machine.
	smokeRounds int // ingress rounds per session
	// -trace sizes.
	walkTransitions int // transitions the reference walker executes
	traceRequests   int // requests through the in-process handler
	directOps       int // direct Server/Runtime calls timed per metric
}

const ownShare = 0.70

func measuredSizes(seconds int) sizes {
	return sizes{
		seconds:        time.Duration(seconds) * time.Second,
		refVerifyIters: 3,
		refIngress:     time.Duration(float64(seconds) * 0.15 * float64(time.Second)),
		refHostBatches: 50,
		minIters:       3,
		setups:         3,
		fanoutRings:    600,
		ringSize:       256,
		hostBatch:      20000,

		walkTransitions: 100000,
		traceRequests:   20000,
		directOps:       20000,
	}
}

func smokeSizes() sizes {
	return sizes{
		smoke:          true,
		refVerifyIters: 1,
		refHostBatches: 1,
		minIters:       1,
		setups:         1,
		fanoutRings:    6,
		ringSize:       8,
		hostBatch:      1000,
		smokeRounds:    6, // with the warm-up round: about 50 requests on two CPUs

		walkTransitions: 200,
		traceRequests:   50,
		directOps:       50,
	}
}

// result is one run of one workload, in the form the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string // how each metric was sampled, failure reasons
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// runWorkload measures every end-to-end metric on one workload with
// tracing off.
func runWorkload(ctx context.Context, e *env, w workload, seed int64, sz sizes, setup summary) (*result, error) {
	res := &result{Metrics: map[string]metricValue{}}
	var all ops
	own := time.Duration(float64(sz.seconds) * ownShare)
	note := func(format string, args ...any) { res.notes = append(res.notes, fmt.Sprintf(format, args...)) }

	// Verify leg.
	spec, budget, iters := &refVerify, time.Duration(0), sz.refVerifyIters
	if w.own == legVerify {
		spec, budget, iters = w.verify, own, sz.minIters
	}
	v, err := e.verifyLeg(ctx, spec, sz, budget, iters, true, spec.parallel)
	if err != nil {
		return nil, err
	}
	all.add(v.ops)
	par := v.par
	if !spec.parallel {
		// This search is not run on the parallel driver: the reference
		// one answers for verdict_par_s.
		ref, err := e.verifyLeg(ctx, &refVerify, sz, 0, sz.refVerifyIters, false, true)
		if err != nil {
			return nil, err
		}
		all.add(ref.ops)
		par = ref.par
	}
	serial, parallel := summarize(v.serial.values), summarize(par.values)
	res.set(endToEnd, "verdict_s", serial.Median)
	res.set(endToEnd, "verdict_par_s", parallel.Median)
	note("verdict_s: n=%d min=%.4f max=%.4f; verdict_par_s: n=%d min=%.4f max=%.4f", serial.N, serial.Min, serial.Max, parallel.N, parallel.Min, parallel.Max)
	rss := median(v.rssMB)

	// Serve leg. The ingress loop runs on every workload; the fan-out
	// iterations only as serve-fanout's own leg.
	ingressBudget := sz.refIngress
	if w.own == legIngress {
		ingressBudget = own
	}
	in, _, err := e.ingressLeg(ctx, ingressBudget, sz.smokeRounds)
	if err != nil {
		return nil, err
	}
	all.add(in.ops)
	res.set(endToEnd, "requests_per_s", in.requestsPerS)
	res.set(endToEnd, "latency_p50_ms", in.p50ms)
	res.set(endToEnd, "latency_p99_ms", in.p99ms)
	res.set(endToEnd, "events_per_s", in.eventsPerS)
	note("latency: n=%d requests", in.latencyN)
	switch w.own {
	case legIngress:
		rss = in.rssMB
	case legFanout:
		fan, _, err := e.fanoutLeg(ctx, seed, sz, own)
		if err != nil {
			return nil, err
		}
		all.add(fan.ops)
		res.set(endToEnd, "events_per_s", fan.eventsPerS)
		rss = fan.rssMB
	}

	// Host leg.
	hostBudget, batches := time.Duration(0), sz.refHostBatches
	if w.own == legHost && !sz.smoke {
		hostBudget, batches = own, 0
	}
	h, err := e.hostLeg(ctx, sz, hostBudget, batches)
	if err != nil {
		return nil, err
	}
	all.add(h.ops)
	res.set(endToEnd, "event_roundtrip_us", h.roundtripUs.Median)
	note("event_roundtrip_us: n=%d batches of %d, min=%.4f max=%.4f", h.roundtripUs.N, sz.hostBatch, h.roundtripUs.Min, h.roundtripUs.Max)
	if w.own == legHost {
		// The process under test is the harness itself.
		rss = selfPeakRSSMB()
	}

	res.set(endToEnd, "peak_rss_mb", rss)
	res.set(endToEnd, "setup_s", setup.Median)
	note("setup_s: n=%d min=%.4f max=%.4f", setup.N, setup.Min, setup.Max)
	res.finish(all)
	return res, nil
}

func (r *result) finish(all ops) {
	r.Attempted, r.Failed = all.attempted, all.failed
	r.Correct = all.failed == 0
	for _, reason := range all.reasons {
		r.notes = append(r.notes, "FAILED: "+reason)
	}
}

// selfPeakRSSMB reads this process's VmHWM.
func selfPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the human-readable report and then, as the last line, the
// JSON object the driver reads.
func (r *result) print(w workload, defs []metricDef) {
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", w.name, r.Attempted, r.Failed)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of numbers and strings always encodes
	}
	fmt.Printf("%s\n", line)
}

const minAvailableMB = 1024 // verify-live peaks near 300 MB, serve-fanout near 150 MB

func main() {
	var (
		only    = flag.String("workload", "", "run only this workload (default: all eight)")
		seed    = flag.Int64("seed", 1, "seed for the generated request scripts, session interleaving and walker order")
		seconds = flag.Int("seconds", 12, "measuring time of one run of one workload")
		traced  = flag.Int("trace", 0, "1: produce the per-layer metrics and trace.json instead of the end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the set N times (seeds seed..seed+N-1) and hold each end-to-end metric's spread to its bound in BENCHMARK.json")
		smoke   = flag.Bool("smoke", false, "tiny fixed sizes, for checking the harness rather than the repo")
		outDir  = flag.String("out", "", "directory for trace.json (default: the temporary directory)")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := mainErr(ctx, *only, *seed, *seconds, *traced == 1, *repeat, *smoke, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		cancel()
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, only string, seed int64, seconds int, traced bool, repeat int, smoke bool, outDir string) error {
	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []workload{w}
	}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds, traced)
	sz := measuredSizes(seconds)
	if smoke {
		sz = smokeSizes()
	} else if mb, ok := availableMB(); ok && mb < minAvailableMB {
		return fmt.Errorf("%d MB of memory available, need %d: the memory figures would measure the machine, not the repo", mb, minAvailableMB)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	tmp := os.TempDir()
	if outDir == "" {
		outDir = tmp
	}
	if repeat > 0 {
		return runRepeat(ctx, root, tmp, selected, seed, sz, repeat)
	}

	e, setup, err := timedSetUp(ctx, root, tmp, seed, sz.setups)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)
	for _, w := range selected {
		var res *result
		defs := endToEnd
		if traced {
			defs = perLayer
			res, err = traceWorkload(ctx, e, w, seed, sz, filepath.Join(outDir, "trace-"+w.name+".json"))
		} else {
			res, err = runWorkload(ctx, e, w, seed, sz, setup)
		}
		if err != nil {
			return err
		}
		res.print(w, defs)
	}
	return nil
}

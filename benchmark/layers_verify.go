package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pgo/internal/abstract"
	"pgo/internal/analysis"
	"pgo/internal/check"
	"pgo/internal/compile"
	"pgo/internal/ir"
	"pgo/internal/live"
	"pgo/internal/store"
)

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// searchFlags is what the in-process twin of a pverify search needs to know
// about its flags.
type searchFlags struct {
	opts     check.Options
	liveness bool
	abstract bool
}

// parseFlags reads a verifySpec's pverify flags into the check.Options the
// CLI would build from them, so the process and its in-process twin cannot
// drift apart.
func parseFlags(flags []string) (searchFlags, error) {
	f := searchFlags{opts: check.Options{
		Mode: check.DelayBounded, Bound: 2, MaxStates: 5_000_000, StopAtFirstError: true, POR: true,
	}}
	for i := 0; i < len(flags); i++ {
		var n *int
		switch flags[i] {
		case "-liveness":
			f.liveness, f.opts.CollectGraph = true, true
			continue
		case "-abstract":
			f.abstract = true
			continue
		case "-mode":
			if i+1 >= len(flags) || flags[i+1] != "depth" {
				return f, fmt.Errorf("benchmark: flags %v: only -mode depth is known", flags)
			}
			f.opts.Mode = check.DepthBounded
			i++
			continue
		case "-bound":
			n = &f.opts.Bound
		case "-store-shards":
			n = &f.opts.StoreShards
		case "-store-mem":
			n = &f.opts.StoreMemPerShard
		case "-checkpoint-stop":
			n = &f.opts.CheckpointStop
		default:
			return f, fmt.Errorf("benchmark: flag %s has no in-process twin", flags[i])
		}
		if i+1 >= len(flags) {
			return f, fmt.Errorf("benchmark: flag %s needs a value", flags[i])
		}
		v, err := strconv.Atoi(flags[i+1])
		if err != nil {
			return f, fmt.Errorf("benchmark: flag %s: %v", flags[i], err)
		}
		*n = v
		i++
	}
	return f, nil
}

// measuredExplore runs one in-process search under MemStats deltas.
func measuredExplore(prog *ir.Program, opts check.Options, resume bool) (res *check.Result, mallocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if resume {
		res, err = check.Resume(prog, opts)
	} else {
		res, err = check.Explore(prog, opts)
	}
	runtime.ReadMemStats(&after)
	return res, float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), err
}

// traceVerify produces the per-layer metrics of a verify workload: the
// front-end phases timed directly, the walker's spans for core and store,
// the real search in-process for check (and live, abstract, the disk tier),
// and one pverify process for what the process adds around them.
func (e *env) traceVerify(ctx context.Context, spec *verifySpec, seed int64, sz sizes, m map[string]float64, all *ops) (*tracer, error) {
	flags, resumeFlags, program, want := spec.flags, spec.resume, spec.program, spec.want
	if sz.smoke {
		flags, resumeFlags, program, want = spec.smokeFlags, spec.smokeResume, "pingpong.p", verdictWant{verdict: spec.want.verdict}
	}
	sf, err := parseFlags(flags)
	if err != nil {
		return nil, err
	}
	src, err := os.ReadFile(filepath.Join(e.dir, program))
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	prog, diags, err := compile.Source(program, string(src))
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %v\n%s", program, err, diags.String())
	}
	compileT := time.Since(t0)
	m["compile.source_ms"] = ms(compileT)
	t0 = time.Now()
	report := analysis.Analyze(prog)
	analyzeT := time.Since(t0)
	m["analysis.analyze_ms"] = ms(analyzeT)
	frontEnd := compileT + analyzeT

	// inProcess accumulates what pverify does between exec and exit that
	// the harness can also do itself; the process run's excess over it is
	// pverify.process_overhead_ms.
	inProcess := frontEnd
	tr := newTracer(8*sz.walkTransitions+16, walkNames...)

	if sf.abstract {
		s := tr.begin(tr.id("abstract.analyze"), noSpan, 0)
		res := abstract.Analyze(prog, abstract.Options{Facts: report})
		tr.end(s)
		bare := abstract.Analyze(prog, abstract.Options{Facts: report})
		all.attempted++
		if got := res.Verdict.String(); got != want.verdict || (want.markings != 0 && res.Markings != want.markings) {
			all.failf("in-process abstract.Analyze: verdict %q with %d markings, want %q with %d", got, res.Markings, want.verdict, want.markings)
		}
		m["abstract.analyze_s"] = res.Elapsed.Seconds()
		m["abstract.markings"] = float64(res.Markings)
		m["abstract.reduced"] = float64(res.Reduced)
		m["abstract.places"] = float64(res.Places)
		m["abstract.markings_per_s"] = float64(res.Markings) / res.Elapsed.Seconds()
		m["trace.overhead_pct"] = 100 * (res.Elapsed.Seconds() - bare.Elapsed.Seconds()) / bare.Elapsed.Seconds()
		inProcess += res.Elapsed
	} else {
		t0 = time.Now()
		analysis.PORIndependence(prog)
		m["analysis.por_independence_ms"] = ms(time.Since(t0))
		t0 = time.Now()
		one := sf.opts
		one.MaxStates, one.CheckpointStop, one.StoreMemPerShard = 1, 0, 0
		if _, err := check.Explore(prog, one); err != nil {
			return nil, err
		}
		m["check.setup_ms"] = ms(time.Since(t0))

		if err := e.walkLayers(prog, seed, sz, tr, m); err != nil {
			return nil, err
		}
		elapsed, err := e.exploreLayers(prog, sf, spec.parallel, resumeFlags, want, sz, m, all)
		if err != nil {
			return nil, err
		}
		inProcess += elapsed
		if resumeFlags != nil {
			inProcess += frontEnd // the resuming process compiles and analyzes again
		}
	}

	// One real process, for what exec, flag parsing, reporting and exit add.
	wall, p, failed, err := e.search(ctx, spec, sz.smoke, 1)
	if err != nil {
		return nil, err
	}
	if failed == nil {
		_, failed = checkVerdict(want, p, false)
	}
	all.attempted++
	if failed != nil {
		all.failf("pverify: %v", failed)
	}
	m["pverify.cpu_s"] = p.cpuS
	m["pverify.process_overhead_ms"] = ms(wall - inProcess)
	return tr, nil
}

// walkLayers runs the reference walker traced and untraced and turns its
// spans into the core.* and store.* per-call costs.
func (e *env) walkLayers(prog *ir.Program, seed int64, sz sizes, tr *tracer, m map[string]float64) error {
	mem := func() (*store.Store, error) { return store.New(store.Options{}) }
	st, err := mem()
	if err != nil {
		return err
	}
	bare, err := walk(prog, seed, sz.walkTransitions, st, nil)
	st.Close()
	if err != nil {
		return err
	}
	if st, err = mem(); err != nil {
		return err
	}
	traced, err := walk(prog, seed, sz.walkTransitions, st, tr)
	st.Close()
	if err != nil {
		return err
	}
	empty := emptySpanNs()
	l := tr.layers()
	perCall := func(name string) float64 { return max(l[name].meanNs()-empty, 0) }
	m["core.step_ns"] = perCall("core.step")
	m["core.step_allocs"] = traced.stepAllocs
	m["core.step_bytes"] = traced.stepBytes
	m["core.clone_ns"] = perCall("core.clone")
	m["core.hash_ns"] = perCall("core.hash")
	m["core.enabled_ns"] = perCall("core.enabled")
	m["store.claim_ns"] = perCall("store.claim")
	m["store.claim_dup_ns"] = perCall("store.claim_dup")
	m["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - bare.wall.Seconds()) / bare.wall.Seconds()
	return nil
}

// exploreLayers runs the workload's real search in-process and reports the
// check.* (and live.*, store.* disk-tier) metrics. It returns the search's
// elapsed time, for the process-overhead subtraction.
func (e *env) exploreLayers(prog *ir.Program, sf searchFlags, parallel bool, resumeFlags []string, want verdictWant, sz sizes, m map[string]float64, all *ops) (time.Duration, error) {
	opts := sf.opts
	var storeDir string
	if resumeFlags != nil {
		var err error
		if storeDir, err = os.MkdirTemp(e.dir, "store-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(storeDir)
		opts.StoreDir = storeDir
	}
	res, mallocs, bytes, err := measuredExplore(prog, opts, false)
	if err != nil {
		return 0, err
	}
	elapsed := res.Stats.Elapsed
	if resumeFlags != nil {
		if !res.Checkpointed {
			all.attempted++
			all.failf("in-process search did not suspend at its checkpoint")
			return elapsed, nil
		}
		var size int64
		for _, name := range []string{"checkpoint.json", "frontier.gob"} {
			if fi, err := os.Stat(filepath.Join(storeDir, name)); err == nil {
				size += fi.Size()
			}
		}
		m["check.checkpoint_bytes"] = float64(size)

		rf, err := parseFlags(resumeFlags)
		if err != nil {
			return 0, err
		}
		ropts := opts
		ropts.StoreMemPerShard, ropts.CheckpointStop = rf.opts.StoreMemPerShard, 0
		t0, restored := time.Now(), time.Duration(0)
		ropts.ProgressEvery = -1
		ropts.Progress = func(int) {
			if restored == 0 {
				restored = time.Since(t0)
			}
		}
		var m2, b2 float64
		res, m2, b2, err = measuredExplore(prog, ropts, true)
		if err != nil {
			return 0, err
		}
		mallocs, bytes = mallocs+m2, bytes+b2
		elapsed = res.Stats.Elapsed // a resumed run's Elapsed continues the first session's
		m["check.resume_restore_ms"] = ms(restored)
		if err := e.spillLayers(prog, opts, sz.walkTransitions, m); err != nil {
			return 0, err
		}
	}
	st := res.Stats
	all.attempted++
	switch {
	case len(res.Violations) != 0 || st.Truncated || res.Checkpointed:
		all.failf("in-process search: %d violations, truncated=%v, checkpointed=%v; want a clean verdict", len(res.Violations), st.Truncated, res.Checkpointed)
	case want.states != 0 && (st.DistinctStates != want.states || st.Transitions != want.transitions):
		all.failf("in-process search: %d states, %d transitions; want %d, %d", st.DistinctStates, st.Transitions, want.states, want.transitions)
	}
	tx := float64(st.Transitions)
	m["check.explore_s"] = elapsed.Seconds()
	m["check.states"] = float64(st.DistinctStates)
	m["check.transitions"] = tx
	m["check.search_nodes"] = float64(st.SearchNodes)
	m["check.max_depth"] = float64(st.MaxDepth)
	m["check.states_per_s"] = float64(st.DistinctStates) / elapsed.Seconds()
	m["check.ns_per_transition"] = float64(elapsed.Nanoseconds()) / tx
	m["check.allocs_per_transition"] = mallocs / tx
	m["check.bytes_per_transition"] = bytes / tx
	m["check.reduced_share"] = 100 * float64(st.ReducedStates) / float64(st.SearchNodes)
	m["check.ample_skips"] = float64(st.AmpleSkips)
	if s := res.StoreStats; s != nil && resumeFlags != nil {
		m["store.chunks"] = float64(s.Chunks)
		m["store.spilled_entries"] = float64(s.SpilledEntries)
		m["store.disk_bytes"] = float64(s.DiskBytes)
	}

	// The cost model: how much of a transition the four walker layers
	// explain. A transition clones, steps, hashes and claims once; the
	// claim is fresh for the share of transitions that found a new state.
	freshShare := float64(st.DistinctStates) / tx
	layerSum := m["core.clone_ns"] + m["core.step_ns"] + m["core.hash_ns"] +
		freshShare*m["store.claim_ns"] + (1-freshShare)*m["store.claim_dup_ns"]
	m["check.self_ns_per_transition"] = m["check.ns_per_transition"] - layerSum
	m["check.layer_sum_share"] = 100 * layerSum / m["check.ns_per_transition"]

	if sf.liveness {
		t0 := time.Now()
		violations := live.Check(prog, res.Graph, live.Options{})
		liveT := time.Since(t0)
		elapsed += liveT
		edges := 0
		for _, out := range res.Graph.Edges {
			edges += len(out)
		}
		m["live.check_ms"] = ms(liveT)
		m["live.graph_nodes"] = float64(res.Graph.Len())
		m["live.graph_edges"] = float64(edges)
		if len(violations) != 0 {
			all.failf("in-process live.Check: %d violations, want none", len(violations))
		}
	}
	if parallel {
		popts := sf.opts
		popts.Workers = max(e.nproc, 2)
		pres, err := check.Explore(prog, popts)
		if err != nil {
			return 0, err
		}
		all.attempted++
		if pres.Stats.DistinctStates != st.DistinctStates {
			all.failf("in-process parallel search: %d states, serial %d", pres.Stats.DistinctStates, st.DistinctStates)
		}
		m["check.par_speedup"] = elapsed.Seconds() / pres.Stats.Elapsed.Seconds()
		m["check.claim_races"] = float64(pres.Stats.ClaimRaces)
	}
	return elapsed, nil
}

// spillLayers walks the program once more through a store capped like the
// resume workload's, for the disk tier's per-claim, flush and reopen costs.
func (e *env) spillLayers(prog *ir.Program, opts check.Options, transitions int, m map[string]float64) error {
	dir, err := os.MkdirTemp(e.dir, "walk-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	so := store.Options{Dir: dir, Shards: opts.StoreShards, MemPerShard: opts.StoreMemPerShard}
	st, err := store.New(so)
	if err != nil {
		return err
	}
	defer st.Close()
	tr := newTracer(8*transitions+16, walkNames...)
	if _, err := walk(prog, 1, transitions, st, tr); err != nil {
		return err
	}
	l := tr.layers()
	claims := layer{
		count: l["store.claim"].count + l["store.claim_dup"].count,
		total: l["store.claim"].total + l["store.claim_dup"].total,
	}
	m["store.claim_spill_ns"] = max(claims.meanNs()-emptySpanNs(), 0)
	t0 := time.Now()
	if err := st.Flush(); err != nil {
		return err
	}
	m["store.flush_ms"] = ms(time.Since(t0))
	sizes := st.ShardSizes()
	t0 = time.Now()
	reopened, err := store.Open(so, sizes)
	if err != nil {
		return err
	}
	m["store.open_ms"] = ms(time.Since(t0))
	return reopened.Close()
}

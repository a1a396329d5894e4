// pverify is the systematic-testing tool for P programs (the role Zing
// plays in the paper): it closes the program with its ghost environment and
// explores the operational semantics with depth-bounded or delay-bounded
// search, reporting safety violations (unhandled events, assertion failures,
// sends to null/deleted machines), and optionally the liveness checks of
// §3.2 on the explored state graph.
//
// Large searches can run disk-backed and resumable: -store-dir names a run
// directory whose tiered visited store spills to chunk files when the
// per-shard memory cap (-store-mem) fills, -checkpoint-every and a first
// SIGINT suspend the search into that directory (exit code 3), and
// `pverify -resume <dir>` picks it up where it left off — the run directory
// records the program and the semantic flags, so no other arguments are
// needed.
//
// Usage:
//
//	pverify [flags] <file.p | sample:NAME | ->
//	pverify -resume <dir> [knob flags]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"

	"pgo/internal/analysis"
	"pgo/internal/check"
	"pgo/internal/cmdutil"
	"pgo/internal/compile"
	"pgo/internal/ir"
	"pgo/internal/live"
	"pgo/internal/store"
	"pgo/internal/trace"
)

func main() {
	var (
		mode      = flag.String("mode", "delay", "bounding strategy: delay, depth, or rr (round-robin ablation)")
		bound     = flag.Int("bound", 2, "delay budget or depth bound")
		maxStates = flag.Int("max-states", 5_000_000, "stop after this many distinct states (0 = unlimited)")
		firstOnly = flag.Bool("first", true, "stop at the first violation")
		liveness  = flag.Bool("liveness", false, "run the liveness checks on the explored graph")
		ghostLive = flag.Bool("liveness-ghost", false, "apply liveness property 1 to ghost machines too")
		traces    = flag.Bool("trace", false, "print the reproducing schedule of each violation")
		workers   = flag.Int("workers", 1, "parallel search workers (delay mode; -1 = all cores)")
		exactFP   = flag.Bool("exact-fp", false, "key visited sets by exact canonical state encodings instead of 128-bit hashes (collision-free auditing mode; slower, more memory)")
		por       = flag.Bool("por", true, "prune commuting interleavings with partial-order reduction (verdict-preserving; composes with -chaos via an environment-machine fault model and with -liveness/-coverage via the C3 cycle proviso)")
		sweep     = flag.Int("sweep", -1, "sweep bounds 0..N and print the states-vs-bound series (Figure 7)")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
		coverage  = flag.Bool("coverage", false, "report per-machine control states the exploration never visited (implies graph collection)")
		allViol   = flag.Int("max-violations", 20, "print at most this many violations")
		noAnalyze = flag.Bool("no-analyze", false, "skip the IR-level static analysis that runs before exploration")
		chaos     = flag.Bool("chaos", false, "inject environment faults (crash, drop, dup) during exploration; defaults the fault budget to 1")
		faults    = flag.Int("faults", -1, "fault budget: max injected faults along one schedule (implies -chaos; 0 disables)")
		faultKind = flag.String("fault-kinds", "all", "comma-separated fault kinds to inject: crash, drop, dup, or all")

		storeDir    = flag.String("store-dir", "", "run directory for the disk-backed visited store (enables spill-to-disk; required for checkpoints)")
		storeMem    = flag.Int("store-mem", 0, "resident entries per visited-store shard before spilling to chunk files (0 = default)")
		storeShards = flag.Int("store-shards", 0, "visited-store shard count, fixed for the life of a run directory (0 = default)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "write a checkpoint every N distinct states (requires -store-dir)")
		ckptStop    = flag.Int("checkpoint-stop", 0, "checkpoint and suspend once N distinct states are reached — exit code 3 (requires -store-dir)")
		resumeDir   = flag.String("resume", "", "resume a checkpointed run from this run directory (takes no program argument)")
		progress    = flag.Int("progress", 0, "print a live distinct-state counter to stderr every N states (0 = off)")

		abstractMode = flag.Bool("abstract", false, "run the parameterized counter-abstraction coverability analysis (P401/P402/P403) instead of explicit-state exploration; abstract counterexamples are confirmed by concrete replay")
		absMarkings  = flag.Int("abstract-markings", 0, "marking budget for -abstract (0 = default)")

		expectMode    = flag.Bool("expect", false, "evaluate the corpus verdict matrix (optionally restricted to the named samples) and diff every cell against internal/psamples/expectations.go; exit 1 on drift")
		expectSummary = flag.String("expect-summary", "", "with -expect, append a markdown verdict matrix to this file (pass $GITHUB_STEP_SUMMARY in CI)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pverify [flags] <file.p | sample:NAME | ->\n       pverify -resume <dir> [knob flags]\n\nsamples: %s\n\nflags:\n", cmdutil.SampleNames())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *expectMode {
		runExpect(flag.Args(), *jsonOut, *expectSummary)
		return
	}
	if *resumeDir != "" {
		if flag.NArg() != 0 {
			cmdutil.Fatalf("pverify: -resume takes no program argument (the run directory records the program)")
		}
		if *sweep >= 0 || *liveness || *coverage || *abstractMode {
			cmdutil.Fatalf("pverify: -resume is incompatible with -sweep, -liveness, -coverage, and -abstract")
		}
		runResume(*resumeDir, resumeKnobs{
			maxStates: *maxStates, workers: *workers, storeMem: *storeMem,
			ckptEvery: *ckptEvery, ckptStop: *ckptStop, progress: *progress,
			jsonOut: *jsonOut, traces: *traces, allViol: *allViol, noAnalyze: *noAnalyze,
		})
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *storeDir == "" && (*ckptEvery > 0 || *ckptStop > 0) {
		cmdutil.Fatalf("pverify: -checkpoint-every and -checkpoint-stop require -store-dir")
	}
	name, src, err := cmdutil.LoadSource(flag.Arg(0))
	if err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}
	prog, diags, err := compile.Source(name, src)
	for _, d := range diags.All() {
		fmt.Fprintln(os.Stderr, d)
	}
	if err != nil {
		os.Exit(1)
	}

	if *abstractMode {
		if *sweep >= 0 || *liveness || *coverage || *chaos || *faults > 0 || *storeDir != "" {
			cmdutil.Fatalf("pverify: -abstract is incompatible with -sweep, -liveness, -coverage, -chaos, -faults, and -store-dir")
		}
		runAbstract(name, prog, *jsonOut, *traces, *absMarkings)
		return
	}

	// Static analysis runs before exploration: its predictions frame what
	// the search then confirms or refutes. Error-severity findings fail the
	// run even if the bounded search happens not to reach the defect.
	findings, analysisBad := analyze(prog, *noAnalyze)

	// -chaos without -faults means a budget of 1; a positive -faults implies
	// chaos on its own.
	budget := 0
	if *faults > 0 {
		budget = *faults
	} else if *chaos && *faults != 0 {
		budget = 1
	}
	var kinds check.FaultSet
	if budget > 0 {
		var kerr error
		kinds, kerr = check.ParseFaultSet(*faultKind)
		if kerr != nil {
			cmdutil.Fatalf("pverify: -fault-kinds: %v", kerr)
		}
	}

	opts := check.Options{
		Bound:             *bound,
		MaxStates:         *maxStates,
		StopAtFirstError:  *firstOnly,
		CollectGraph:      *liveness || *coverage,
		ExactFingerprints: *exactFP,
		Faults:            budget,
		FaultKinds:        kinds,
		StoreDir:          *storeDir,
		StoreMemPerShard:  *storeMem,
		StoreShards:       *storeShards,
		CheckpointEvery:   *ckptEvery,
		CheckpointStop:    *ckptStop,
		ProgramID:         sourceID(src),
	}
	opts.POR = *por
	opts.Workers = *workers
	opts.Mode, err = parseMode(*mode)
	if err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}
	wireProgress(&opts, *progress)

	if *sweep >= 0 {
		series, err := check.Sweep(prog, opts, *sweep, 0)
		if err != nil {
			cmdutil.Fatalf("pverify: %v", err)
		}
		fmt.Printf("%s: %s sweep 0..%d\n", name, opts.Mode, *sweep)
		fmt.Printf("  %6s %12s %12s %6s %10s\n", "bound", "states", "transitions", "viol", "time")
		for _, pt := range series {
			trunc := ""
			if pt.Truncated {
				trunc = " (truncated)"
			}
			fmt.Printf("  %6d %12d %12d %6d %10v%s\n", pt.Bound, pt.States, pt.Transitions, pt.Violations, pt.Elapsed.Round(1_000_000), trunc)
		}
		if check.Saturated(series) {
			fmt.Println("  series saturated: the last bound exposed no new states")
		}
		return
	}

	if *storeDir != "" {
		if err := writeRunInfo(*storeDir, flag.Arg(0), name, src, opts); err != nil {
			cmdutil.Fatalf("pverify: %v", err)
		}
		wireInterrupt(&opts)
	}

	res, err := check.Explore(prog, opts)
	if err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}

	report(reportInput{
		name: name, prog: prog, opts: opts, res: res,
		findings: findings, analysisBad: analysisBad,
		jsonOut: *jsonOut, traces: *traces, allViol: *allViol,
		liveness: *liveness, ghostLive: *ghostLive, coverage: *coverage,
		porReason: porNotice(opts),
	})
}

// porNotice surfaces a POR request the explorer force-disabled: a one-line
// stderr notice so the reduced run the user asked for is visibly unreduced,
// and the reason string for the JSON report's por_disabled_reason field
// ("" when reduction is off by choice or actually running).
func porNotice(opts check.Options) string {
	if !opts.POR {
		return ""
	}
	reason := opts.PORDisabledReason()
	if reason != "" {
		fmt.Fprintf(os.Stderr, "pverify: note: -por requested but partial-order reduction is disabled: %s\n", reason)
	}
	return reason
}

func parseMode(s string) (check.Mode, error) {
	switch s {
	case "delay":
		return check.DelayBounded, nil
	case "depth":
		return check.DepthBounded, nil
	case "rr":
		return check.RoundRobinDelay, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want delay, depth, or rr)", s)
}

// modeFlag is the inverse of parseMode: the CLI spelling recorded in
// run.json (Mode.String() is the longer display form).
func modeFlag(m check.Mode) string {
	switch m {
	case check.DepthBounded:
		return "depth"
	case check.RoundRobinDelay:
		return "rr"
	}
	return "delay"
}

func analyze(prog *ir.Program, skip bool) ([]analysis.Finding, bool) {
	if skip {
		return nil, false
	}
	findings := analysis.Analyze(prog).Findings
	bad := false
	for _, f := range findings {
		if f.Severity == analysis.SevInfo {
			continue
		}
		fmt.Fprintf(os.Stderr, "analysis: %s\n", f)
		if f.Severity == analysis.SevError {
			bad = true
		}
	}
	return findings, bad
}

// sourceID is the program identity recorded in checkpoints and run.json: a
// checkpoint only resumes against the byte-identical source.
func sourceID(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// wireProgress installs the -progress live counter.
func wireProgress(opts *check.Options, every int) {
	if every <= 0 {
		return
	}
	opts.ProgressEvery = every
	opts.Progress = func(n int) { fmt.Fprintf(os.Stderr, "pverify: %d distinct states\n", n) }
}

// wireInterrupt arms checkpoint-on-SIGINT: the first interrupt requests a
// checkpoint at the next search step (the run then suspends with exit code
// 3), a second interrupt kills the process normally.
func wireInterrupt(opts *check.Options) {
	var requested atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "pverify: interrupt — checkpointing (interrupt again to kill)")
		requested.Store(true)
		signal.Stop(ch)
	}()
	opts.CheckpointRequest = func() bool { return requested.Load() }
}

// runInfo is the run.json schema written into a -store-dir run directory.
// It records everything `pverify -resume <dir>` needs: the program source
// itself (so resume does not depend on the original file still existing, or
// on stdin being replayable) and the semantic flags of the original run.
// Knob flags — workers, memory caps, -max-states, checkpoint cadence — are
// deliberately absent: the resuming session sets its own.
type runInfo struct {
	Format       string `json:"format"`
	Program      string `json:"program"` // the original CLI argument, for display
	ProgramName  string `json:"program_name"`
	SourceSHA256 string `json:"source_sha256"`
	Source       string `json:"source"`
	Mode         string `json:"mode"`
	Bound        int    `json:"bound"`
	First        bool   `json:"stop_at_first_error"`
	ExactFP      bool   `json:"exact_fp"`
	POR          bool   `json:"por"`
	Faults       int    `json:"faults"`
	FaultKinds   string `json:"fault_kinds"`
	StoreShards  int    `json:"store_shards"`
}

const runInfoFormat = "pverify-run/1"

func runInfoPath(dir string) string { return filepath.Join(dir, "run.json") }

func writeRunInfo(dir, arg, name, src string, opts check.Options) error {
	if _, err := os.Stat(runInfoPath(dir)); err == nil {
		return fmt.Errorf("run directory %s already holds a run (its visited store would corrupt a fresh search); resume it with -resume %s or use a fresh directory", dir, dir)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	kinds := ""
	if opts.Faults > 0 {
		kinds = opts.FaultKinds.String()
	}
	ri := runInfo{
		Format:       runInfoFormat,
		Program:      arg,
		ProgramName:  name,
		SourceSHA256: sourceID(src),
		Source:       src,
		Mode:         modeFlag(opts.Mode),
		Bound:        opts.Bound,
		First:        opts.StopAtFirstError,
		ExactFP:      opts.ExactFingerprints,
		POR:          opts.POR,
		Faults:       opts.Faults,
		FaultKinds:   kinds,
		StoreShards:  opts.StoreShards,
	}
	b, err := json.MarshalIndent(ri, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(runInfoPath(dir), append(b, '\n'), 0o666)
}

func readRunInfo(dir string) (*runInfo, error) {
	b, err := os.ReadFile(runInfoPath(dir))
	if err != nil {
		return nil, fmt.Errorf("reading run directory: %w", err)
	}
	var ri runInfo
	if err := json.Unmarshal(b, &ri); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", runInfoPath(dir), err)
	}
	if ri.Format != runInfoFormat {
		return nil, fmt.Errorf("%s: run format %q not supported (want %q)", runInfoPath(dir), ri.Format, runInfoFormat)
	}
	return &ri, nil
}

// resumeKnobs are the flags a resuming session may set freely; the semantic
// flags come from run.json and may not be changed (explicitly setting one to
// a conflicting value is an error, matching check.Resume's manifest check).
type resumeKnobs struct {
	maxStates, workers, storeMem int
	ckptEvery, ckptStop          int
	progress, allViol            int
	jsonOut, traces, noAnalyze   bool
}

func runResume(dir string, knobs resumeKnobs) {
	ri, err := readRunInfo(dir)
	if err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}
	prog, diags, err := compile.Source(ri.ProgramName, ri.Source)
	for _, d := range diags.All() {
		fmt.Fprintln(os.Stderr, d)
	}
	if err != nil {
		os.Exit(1)
	}
	findings, analysisBad := analyze(prog, knobs.noAnalyze)

	var kinds check.FaultSet
	if ri.Faults > 0 {
		kinds, err = check.ParseFaultSet(ri.FaultKinds)
		if err != nil {
			cmdutil.Fatalf("pverify: %s records fault kinds %q: %v", runInfoPath(dir), ri.FaultKinds, err)
		}
	}
	opts := check.Options{
		MaxStates:         knobs.maxStates,
		Bound:             ri.Bound,
		StopAtFirstError:  ri.First,
		ExactFingerprints: ri.ExactFP,
		POR:               ri.POR,
		Faults:            ri.Faults,
		FaultKinds:        kinds,
		Workers:           knobs.workers,
		StoreDir:          dir,
		StoreMemPerShard:  knobs.storeMem,
		StoreShards:       ri.StoreShards,
		CheckpointEvery:   knobs.ckptEvery,
		CheckpointStop:    knobs.ckptStop,
		ProgramID:         sourceID(ri.Source),
	}
	opts.Mode, err = parseMode(ri.Mode)
	if err != nil {
		cmdutil.Fatalf("pverify: %s: %v", runInfoPath(dir), err)
	}
	checkSemanticFlags(ri)
	wireProgress(&opts, knobs.progress)
	wireInterrupt(&opts)

	res, err := check.Resume(prog, opts)
	if err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}
	report(reportInput{
		name: ri.ProgramName, prog: prog, opts: opts, res: res,
		findings: findings, analysisBad: analysisBad,
		jsonOut: knobs.jsonOut, traces: knobs.traces, allViol: knobs.allViol,
		porReason: porNotice(opts),
	})
}

// checkSemanticFlags rejects semantic flags explicitly set on the -resume
// command line to values conflicting with the run directory's record.
// Restating the recorded value is allowed.
func checkSemanticFlags(ri *runInfo) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	conflict := func(name string, got, want any) {
		if set[name] && got != want {
			cmdutil.Fatalf("pverify: -%s=%v conflicts with the run directory (recorded %v); semantic flags cannot change on resume", name, got, want)
		}
	}
	conflict("mode", flag.Lookup("mode").Value.String(), ri.Mode)
	conflict("bound", flag.Lookup("bound").Value.String(), fmt.Sprint(ri.Bound))
	conflict("first", flag.Lookup("first").Value.String(), fmt.Sprint(ri.First))
	conflict("exact-fp", flag.Lookup("exact-fp").Value.String(), fmt.Sprint(ri.ExactFP))
	conflict("por", flag.Lookup("por").Value.String(), fmt.Sprint(ri.POR))
	conflict("faults", flag.Lookup("faults").Value.String(), fmt.Sprint(ri.Faults))
	conflict("chaos", flag.Lookup("chaos").Value.String(), fmt.Sprint(ri.Faults > 0))
	if ri.Faults > 0 {
		conflict("fault-kinds", flag.Lookup("fault-kinds").Value.String(), ri.FaultKinds)
	}
	conflict("store-shards", flag.Lookup("store-shards").Value.String(), fmt.Sprint(ri.StoreShards))
}

// reportInput carries one finished (or suspended) run to the reporters.
type reportInput struct {
	name        string
	prog        *ir.Program
	opts        check.Options
	res         *check.Result
	findings    []analysis.Finding
	analysisBad bool
	jsonOut     bool
	traces      bool
	allViol     int
	liveness    bool
	ghostLive   bool
	coverage    bool
	// porReason is the non-empty PORDisabledReason when -por was requested
	// but the explorer force-disabled the reduction.
	porReason string
}

// report prints the run in text or JSON form and exits: 0 clean, 1 on
// violations or analysis errors, 3 when the search suspended at a
// checkpoint (the run is incomplete — no verdict either way).
func report(in reportInput) {
	if in.res.StoreErr != nil {
		fmt.Fprintf(os.Stderr, "pverify: warning: visited store degraded (deduplication may be incomplete): %v\n", in.res.StoreErr)
	}
	if in.jsonOut {
		emitJSON(in)
		return
	}

	res, opts := in.res, in.opts
	st := res.Stats
	fmt.Printf("%s: %s bound %d: %d distinct states, %d transitions, %d search nodes, max depth %d, %d quiescent, %v (set-up %v)\n",
		in.name, opts.Mode, opts.Bound, st.DistinctStates, st.Transitions, st.SearchNodes, st.MaxDepth, st.Quiescent,
		st.Elapsed.Round(1_000_000), res.Setup.Round(1_000_000))
	if st.ReducedStates > 0 {
		fmt.Printf("  por: %d nodes reduced to a single machine, %d schedule options pruned\n", st.ReducedStates, st.AmpleSkips)
	}
	if opts.Faults > 0 {
		fmt.Printf("  chaos: fault budget %d (kinds %s), %d fault steps\n", opts.Faults, opts.FaultKinds, st.FaultSteps)
	}
	if s := res.StoreStats; s != nil {
		fmt.Printf("  store: %d shards, %d resident + %d spilled entries, %d chunks, %d bytes on disk\n",
			s.Shards, s.MemEntries, s.SpilledEntries, s.Chunks, s.DiskBytes)
	}
	if st.Truncated {
		fmt.Println("  (search truncated)")
	}

	bad := false
	for i, v := range res.Violations {
		if i >= in.allViol {
			fmt.Printf("  ... and %d more violations\n", len(res.Violations)-i)
			break
		}
		bad = true
		fmt.Printf("VIOLATION: %v\n", v.Err)
		if in.traces {
			if err := trace.Render(in.prog, &v, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "pverify: rendering trace: %v\n", err)
			}
		}
	}

	if in.coverage {
		cov := check.CoverageOf(in.prog, res.Graph)
		for _, m := range in.prog.Machines {
			if m.Ghost {
				continue
			}
			if !cov.Instantiated[m.ID] {
				fmt.Printf("coverage: machine %s never instantiated\n", m.Name)
				continue
			}
			unvisited := cov.Unvisited(in.prog, m.ID)
			if len(unvisited) == 0 {
				fmt.Printf("coverage: machine %s: all %d states visited\n", m.Name, len(m.States))
				continue
			}
			fmt.Printf("coverage: machine %s: %d of %d states never visited:", m.Name, len(unvisited), len(m.States))
			for _, s := range unvisited {
				fmt.Printf(" %s", m.States[s].Name)
			}
			fmt.Println()
		}
	}

	if in.liveness {
		vs := live.Check(in.prog, res.Graph, live.Options{IncludeGhost: in.ghostLive})
		for _, v := range vs {
			bad = true
			fmt.Printf("VIOLATION: %v\n", v)
		}
		if len(vs) == 0 {
			fmt.Println("liveness: no violations on the explored graph")
		}
	}

	if res.Checkpointed {
		fmt.Printf("search suspended at a checkpoint (%d violations so far); resume with: pverify -resume %s\n",
			len(res.Violations), opts.StoreDir)
		os.Exit(3)
	}
	if bad || in.analysisBad {
		os.Exit(1)
	}
	fmt.Println("no safety violations")
}

// jsonReport is the machine-readable result schema of -json. The top-level
// mode/bound/faults/fault_kinds fields predate the options block and are kept
// for compatibility; options is the authoritative record of the explorer
// configuration and is always emitted in full, so a clean run and a chaos run
// produce reports with the same shape.
type jsonReport struct {
	Program      string                 `json:"program"`
	Mode         string                 `json:"mode"`
	Bound        int                    `json:"bound"`
	Faults       int                    `json:"faults"`
	FaultKinds   string                 `json:"fault_kinds"`
	Options      jsonOptions            `json:"options"`
	Analysis     []analysis.JSONFinding `json:"analysis,omitempty"`
	Stats        jsonStats              `json:"stats"`
	VisitedStore *store.Stats           `json:"visited_store,omitempty"`
	Checkpointed bool                   `json:"checkpointed"`
	StoreError   string                 `json:"store_error,omitempty"`
	Violations   []jsonViolation        `json:"violations"`
	Liveness     []string               `json:"liveness,omitempty"`
	OK           bool                   `json:"ok"`
}

// jsonOptions mirrors check.Options as resolved for the run — every field is
// always present, with no omitempty, so consumers can diff configurations
// across reports without guessing at defaults.
type jsonOptions struct {
	Mode              string `json:"mode"`
	Bound             int    `json:"bound"`
	MaxStates         int    `json:"max_states"`
	StopAtFirstError  bool   `json:"stop_at_first_error"`
	Workers           int    `json:"workers"`
	ExactFingerprints bool   `json:"exact_fp"`
	POR               bool   `json:"por"`
	// PORDisabledReason is non-empty when POR was requested but the explorer
	// force-disabled the reduction (the run explored unreduced); "" means
	// the POR field tells the whole story.
	PORDisabledReason string `json:"por_disabled_reason"`
	Faults            int    `json:"faults"`
	FaultKinds        string `json:"fault_kinds"`
	StoreDir          string `json:"store_dir"`
	StoreShards       int    `json:"store_shards"`
}

type jsonStats struct {
	DistinctStates int   `json:"distinct_states"`
	Transitions    int   `json:"transitions"`
	SearchNodes    int   `json:"search_nodes"`
	FaultSteps     int   `json:"fault_steps,omitempty"`
	ReducedStates  int   `json:"reduced_states"`
	AmpleSkips     int   `json:"ample_skips"`
	MaxDepth       int   `json:"max_depth"`
	Quiescent      int   `json:"quiescent"`
	Truncated      bool  `json:"truncated"`
	ElapsedMS      int64 `json:"elapsed_ms"`
	SetupMS        int64 `json:"setup_ms"` // part of elapsed_ms: construction to first expanded node
}

type jsonViolation struct {
	Kind     string     `json:"kind"`
	Message  string     `json:"message"`
	Schedule []jsonStep `json:"schedule"`
}

type jsonStep struct {
	Machine int    `json:"machine"`
	Type    string `json:"type"`
	Delays  int    `json:"delays,omitempty"`
	Choices []bool `json:"choices,omitempty"`
	Outcome string `json:"outcome"`
	Event   string `json:"event,omitempty"`
	Fault   string `json:"fault,omitempty"` // crash, drop, or dup on injected-fault steps
}

func emitJSON(in reportInput) {
	opts, res := in.opts, in.res
	faultKinds := ""
	if opts.Faults > 0 {
		faultKinds = opts.FaultKinds.String()
	}
	rep := jsonReport{
		Program:    in.name,
		Mode:       opts.Mode.String(),
		Bound:      opts.Bound,
		Faults:     opts.Faults,
		FaultKinds: faultKinds,
		Options: jsonOptions{
			Mode:              opts.Mode.String(),
			Bound:             opts.Bound,
			MaxStates:         opts.MaxStates,
			StopAtFirstError:  opts.StopAtFirstError,
			Workers:           opts.Workers,
			ExactFingerprints: opts.ExactFingerprints,
			POR:               opts.POR,
			PORDisabledReason: in.porReason,
			Faults:            opts.Faults,
			FaultKinds:        faultKinds,
			StoreDir:          opts.StoreDir,
			StoreShards:       opts.StoreShards,
		},
		Analysis: analysis.FindingsJSON(in.findings),
		Stats: jsonStats{
			DistinctStates: res.Stats.DistinctStates,
			Transitions:    res.Stats.Transitions,
			SearchNodes:    res.Stats.SearchNodes,
			FaultSteps:     res.Stats.FaultSteps,
			ReducedStates:  res.Stats.ReducedStates,
			AmpleSkips:     res.Stats.AmpleSkips,
			MaxDepth:       res.Stats.MaxDepth,
			Quiescent:      res.Stats.Quiescent,
			Truncated:      res.Stats.Truncated,
			ElapsedMS:      res.Stats.Elapsed.Milliseconds(),
			SetupMS:        res.Setup.Milliseconds(),
		},
		VisitedStore: res.StoreStats,
		Checkpointed: res.Checkpointed,
		Violations:   []jsonViolation{},
	}
	if res.StoreErr != nil {
		rep.StoreError = res.StoreErr.Error()
	}
	for _, v := range res.Violations {
		jv := jsonViolation{Kind: v.Err.Kind.String(), Message: v.Err.Error()}
		for _, s := range v.Trace {
			step := jsonStep{
				Machine: int(s.Machine),
				Type:    s.Type,
				Delays:  s.Delays,
				Choices: s.Choices,
				Outcome: s.Outcome.String(),
			}
			if s.Fault != check.FaultNone {
				step.Outcome = "fault"
				step.Fault = s.Fault.String()
				step.Delays = 0
			}
			if s.HasEv {
				step.Event = in.prog.Events[s.Event].Name
			}
			jv.Schedule = append(jv.Schedule, step)
		}
		rep.Violations = append(rep.Violations, jv)
	}
	if in.liveness {
		for _, v := range live.Check(in.prog, res.Graph, live.Options{IncludeGhost: in.ghostLive}) {
			rep.Liveness = append(rep.Liveness, v.String())
		}
	}
	rep.OK = len(rep.Violations) == 0 && len(rep.Liveness) == 0 && !in.analysisBad && !rep.Checkpointed
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		cmdutil.Fatalf("pverify: %v", err)
	}
	switch {
	case rep.Checkpointed:
		os.Exit(3)
	case !rep.OK:
		os.Exit(1)
	}
}

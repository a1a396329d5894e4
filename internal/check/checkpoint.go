package check

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pgo/internal/core"
	"pgo/internal/ir"
	"pgo/internal/store"
)

// Checkpoint/resume. A checkpoint freezes a search as pure data under the
// run directory (Options.StoreDir):
//
//	checkpoint.json  manifest: format tag, fingerprint scheme, program id,
//	                 the semantic options, the statistics so far, and the
//	                 per-shard chunk-file sizes of both tiered stores
//	frontier.gob     the unexpanded search nodes, each as its reproducing
//	                 trace (the same []TraceStep a violation carries) plus
//	                 the scheduler context; violations found so far; and,
//	                 in exact-fingerprint mode, whole-map dumps of the
//	                 visited dictionaries
//	states/, visited/  the tiered stores' chunk files (hashed mode), fully
//	                 spilled by the Flush that precedes every manifest write
//
// Global configurations are never serialized directly: a frontier node is
// restored by replaying its trace from the initial configuration (the same
// machinery that replays a violation), and the replayed state's 128-bit hash
// must equal the recorded one — a program or scheme change between sessions
// is caught per node, not just by the manifest's identity fields.
//
// The write order makes checkpoints atomic: stores are flushed first, then
// the frontier, and the manifest rename commits the checkpoint last. Chunk
// bytes appended after a manifest was written (the run kept going) are
// dropped on resume by truncating each shard file to the manifest's recorded
// size, so a checkpoint plus any later crash always restores to a consistent
// cut. Resumed statistics continue from the manifest's, and replayed trace
// steps are not counted — a run interrupted and resumed reports the same
// Stats as one that was never interrupted (the resume equivalence tests pin
// this).

const (
	ckptFormat       = "pverify-ckpt/1"
	ckptManifestName = "checkpoint.json"
	ckptFrontierName = "frontier.gob"
)

// ckptSemantics is the subset of Options that defines the search space.
// A checkpoint can only be resumed under equal semantics; everything else
// (workers, progress, memory caps, checkpoint cadence) is a knob the
// resuming session may change freely.
type ckptSemantics struct {
	Mode              Mode     `json:"mode"`
	Bound             int      `json:"bound"`
	MaxLocalSteps     int      `json:"max_local_steps"`
	StopAtFirstError  bool     `json:"stop_at_first_error"`
	DisableDedup      bool     `json:"disable_dedup"`
	FineGrained       bool     `json:"fine_grained"`
	ExactFingerprints bool     `json:"exact_fp"`
	POR               bool     `json:"por"`
	Faults            int      `json:"faults"`
	FaultKinds        FaultSet `json:"fault_kinds"`
	StoreShards       int      `json:"store_shards"`
}

func (o Options) semantics() ckptSemantics {
	kinds := FaultSet(0)
	if o.Faults > 0 {
		kinds = o.faultKinds()
	}
	return ckptSemantics{
		Mode:              o.Mode,
		Bound:             o.Bound,
		MaxLocalSteps:     o.MaxLocalSteps,
		StopAtFirstError:  o.StopAtFirstError,
		DisableDedup:      o.DisableDedup,
		FineGrained:       o.FineGrained,
		ExactFingerprints: o.ExactFingerprints,
		POR:               o.POR,
		Faults:            o.Faults,
		FaultKinds:        kinds,
		StoreShards:       o.StoreShards,
	}
}

// ckptManifest is the checkpoint.json schema.
type ckptManifest struct {
	Format       string        `json:"format"`
	Scheme       string        `json:"fingerprint_scheme"`
	ProgramID    string        `json:"program_id,omitempty"`
	Semantics    ckptSemantics `json:"semantics"`
	Stats        Stats         `json:"stats"`
	ElapsedNanos int64         `json:"elapsed_ns"`
	FrontierLen  int           `json:"frontier_len"`
	Violations   int           `json:"violations"`
	// Per-shard chunk-file byte limits of the two tiered stores, recorded
	// right after Flush; store.Open truncates to these on resume. Absent in
	// exact-fingerprint mode (the dictionaries travel in frontier.gob).
	StateSizes   []int64 `json:"state_shard_sizes,omitempty"`
	VisitedSizes []int64 `json:"visited_shard_sizes,omitempty"`
}

// ckptNode is one serialized frontier node. Trace replays to the node's
// global configuration; Stack/Cursor/Sleep restore the scheduler context of
// the configured mode (the other fields stay zero).
type ckptNode struct {
	Trace  []TraceStep
	Stack  []core.MachineID // delay-bounded (serial and parallel)
	Cursor int              // round-robin
	Sleep  []ckptSleep      // depth-bounded POR sleep set
	Delays int
	Faults int
	Depth  int
	Hash   core.Fp // replay verification
}

// ckptSleep mirrors sleepEntry with exported fields for gob.
type ckptSleep struct {
	ID      core.MachineID
	SentTo  []core.MachineID
	Creates bool
}

// ckptExactMinDelay and ckptExactDepth dump the exact-mode dictionaries.
type ckptExactMinDelay struct {
	State, Aux string
	Faults     int
	Delays     int
}

type ckptExactDepth struct {
	State  string
	Faults int
	Depth  int
	Sleep  []core.MachineID
}

// ckptFrontier is the frontier.gob payload.
type ckptFrontier struct {
	Nodes      []ckptNode
	Violations []Violation
	// Exact-fingerprint dictionary dumps; empty in hashed mode.
	ExactStates   []string
	ExactMinDelay []ckptExactMinDelay
	ExactDepth    []ckptExactDepth
}

// checkpointer holds a run's checkpoint configuration and write state.
type checkpointer struct {
	dir        string
	every      int
	stopAt     int
	request    func() bool
	lastStates int // distinct states at the last periodic checkpoint
	err        error
}

func (o *Options) checkpointing() bool {
	return o.CheckpointEvery > 0 || o.CheckpointStop > 0 || o.CheckpointRequest != nil
}

// initCheckpointer validates the checkpoint options and arms e.ckpt.
func (e *explorer) initCheckpointer() error {
	if !e.opts.checkpointing() {
		return nil
	}
	switch {
	case e.opts.StoreDir == "":
		return fmt.Errorf("check: checkpointing requires Options.StoreDir")
	case e.opts.CollectGraph:
		return fmt.Errorf("check: checkpointing is incompatible with CollectGraph (a resumed run cannot reconstruct the pre-checkpoint graph)")
	case e.opts.Foreign != nil:
		return fmt.Errorf("check: checkpointing is incompatible with a host foreign environment (its identity cannot be verified across sessions)")
	}
	e.ckpt = &checkpointer{
		dir:     e.opts.StoreDir,
		every:   e.opts.CheckpointEvery,
		stopAt:  e.opts.CheckpointStop,
		request: e.opts.CheckpointRequest,
	}
	return nil
}

// due reports whether a checkpoint should be written now, and whether the
// search should suspend after it.
func (c *checkpointer) due(states int) (due, stop bool) {
	if c.stopAt > 0 && states >= c.stopAt {
		return true, true
	}
	if c.request != nil && c.request() {
		return true, true
	}
	if c.every > 0 && states-c.lastStates >= c.every {
		return true, false
	}
	return false, false
}

// ckptSerial is the serial explorers' loop-top hook: when a checkpoint is
// due it snapshots the frontier (the callback runs only then) and writes it.
// It returns true when the search should stop — a suspend checkpoint was
// written, or the write failed (the error surfaces through run()).
func (e *explorer) ckptSerial(snapshot func() []ckptNode) bool {
	due, stop := e.ckpt.due(e.result.Stats.DistinctStates)
	if !due {
		return false
	}
	if err := e.writeCheckpoint(snapshot(), e.result.Stats, e.result.Violations); err != nil {
		e.ckpt.err = err
		return true
	}
	if stop {
		e.result.Checkpointed = true
	}
	return stop
}

// writeCheckpoint flushes the stores and commits a checkpoint: frontier
// first, manifest rename last (the commit point).
func (e *explorer) writeCheckpoint(frontier []ckptNode, st Stats, viols []Violation) error {
	c := e.ckpt
	man := ckptManifest{
		Format:       ckptFormat,
		Scheme:       core.FingerprintScheme,
		ProgramID:    e.opts.ProgramID,
		Semantics:    e.opts.semantics(),
		Stats:        st,
		ElapsedNanos: int64(e.prior + time.Since(e.start)),
		FrontierLen:  len(frontier),
		Violations:   len(viols),
	}
	fr := ckptFrontier{Nodes: frontier, Violations: viols}
	if e.opts.ExactFingerprints {
		e.dumpExact(&fr)
	} else {
		for _, s := range e.stores {
			if err := s.Flush(); err != nil {
				return err
			}
		}
		man.StateSizes = e.stores[0].ShardSizes()
		man.VisitedSizes = e.stores[1].ShardSizes()
	}
	if err := writeFileAtomic(filepath.Join(c.dir, ckptFrontierName), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&fr)
	}); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(c.dir, ckptManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	}); err != nil {
		return err
	}
	c.lastStates = st.DistinctStates
	return nil
}

// writeFileAtomic writes via a temp file, syncs, and renames into place.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// dumpExact serializes the exact-mode dictionaries into the frontier file.
func (e *explorer) dumpExact(fr *ckptFrontier) {
	for i := range e.states.shards {
		sh := &e.states.shards[i]
		for k := range sh.m {
			fr.ExactStates = append(fr.ExactStates, k)
		}
	}
	if e.visited != nil {
		for i := range e.visited.shards {
			sh := &e.visited.shards[i]
			for k, d := range sh.m {
				fr.ExactMinDelay = append(fr.ExactMinDelay, ckptExactMinDelay{
					State: k.state, Aux: k.aux, Faults: k.faults, Delays: d,
				})
			}
		}
	}
	if e.dvisited != nil {
		for k, recs := range e.dvisited.m {
			for _, r := range recs {
				fr.ExactDepth = append(fr.ExactDepth, ckptExactDepth{
					State: k.state, Faults: k.faults, Depth: r.depth, Sleep: r.sleep,
				})
			}
		}
	}
}

// loadExact restores the exact-mode dictionaries from a frontier dump.
func (e *explorer) loadExact(fr *ckptFrontier) {
	for _, k := range fr.ExactStates {
		sh := &e.states.shards[StateKey{exact: k}.shard()]
		sh.m[k] = struct{}{}
	}
	if e.visited != nil {
		for _, r := range fr.ExactMinDelay {
			sh := &e.visited.shards[StateKey{exact: r.State}.shard()]
			sh.m[exactVisitedKey{state: r.State, aux: r.Aux, faults: r.Faults}] = r.Delays
		}
	}
	if e.dvisited != nil {
		for _, r := range fr.ExactDepth {
			k := exactDVKey{state: r.State, faults: r.Faults}
			e.dvisited.m[k] = append(e.dvisited.m[k], dvVal{depth: r.Depth, sleep: r.Sleep})
		}
	}
}

func readManifest(dir string) (*ckptManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
	if err != nil {
		return nil, fmt.Errorf("check: reading checkpoint manifest: %w", err)
	}
	var man ckptManifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("check: parsing checkpoint manifest: %w", err)
	}
	if man.Format != ckptFormat {
		return nil, fmt.Errorf("check: checkpoint format %q not supported (want %q)", man.Format, ckptFormat)
	}
	return &man, nil
}

func readFrontier(dir string) (*ckptFrontier, error) {
	f, err := os.Open(filepath.Join(dir, ckptFrontierName))
	if err != nil {
		return nil, fmt.Errorf("check: reading checkpoint frontier: %w", err)
	}
	defer f.Close()
	var fr ckptFrontier
	if err := gob.NewDecoder(f).Decode(&fr); err != nil {
		return nil, fmt.Errorf("check: decoding checkpoint frontier: %w", err)
	}
	return &fr, nil
}

// semanticsMismatch spells out the first differing semantic field, so a
// resume under the wrong flags fails with an actionable message.
func semanticsMismatch(got, want ckptSemantics) error {
	type diff struct {
		name      string
		got, want any
	}
	for _, d := range []diff{
		{"mode", got.Mode.String(), want.Mode.String()},
		{"bound", got.Bound, want.Bound},
		{"max local steps", got.MaxLocalSteps, want.MaxLocalSteps},
		{"stop-at-first-error", got.StopAtFirstError, want.StopAtFirstError},
		{"dedup ablation", got.DisableDedup, want.DisableDedup},
		{"fine-grained ablation", got.FineGrained, want.FineGrained},
		{"exact fingerprints", got.ExactFingerprints, want.ExactFingerprints},
		{"partial-order reduction", got.POR, want.POR},
		{"fault budget", got.Faults, want.Faults},
		{"fault kinds", got.FaultKinds.String(), want.FaultKinds.String()},
		{"store shards", got.StoreShards, want.StoreShards},
	} {
		if d.got != d.want {
			return fmt.Errorf("check: resume options mismatch: %s is %v, checkpoint was written with %v", d.name, d.got, d.want)
		}
	}
	return fmt.Errorf("check: resume options mismatch")
}

// Resume restores a checkpointed search from opts.StoreDir and runs it to
// completion (or to the next suspend point — a resumed run may itself
// checkpoint). The semantic options must equal the checkpoint's; workers,
// progress, memory caps, MaxStates, and checkpoint cadence may differ.
func Resume(prog *ir.Program, opts Options) (*Result, error) {
	if opts.StoreDir == "" {
		return nil, fmt.Errorf("check: resume requires Options.StoreDir")
	}
	if opts.CollectGraph {
		return nil, fmt.Errorf("check: resume is incompatible with CollectGraph")
	}
	if opts.Foreign != nil {
		return nil, fmt.Errorf("check: resume is incompatible with a host foreign environment")
	}
	man, err := readManifest(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	if man.Scheme != core.FingerprintScheme {
		return nil, fmt.Errorf("check: checkpoint fingerprint scheme %q differs from this build's %q", man.Scheme, core.FingerprintScheme)
	}
	if man.ProgramID != "" && opts.ProgramID != "" && man.ProgramID != opts.ProgramID {
		return nil, fmt.Errorf("check: checkpoint was written for a different program (id %s, resuming %s)", man.ProgramID, opts.ProgramID)
	}
	if got := opts.semantics(); got != man.Semantics {
		return nil, semanticsMismatch(got, man.Semantics)
	}

	e := &explorer{prog: prog, opts: opts, progEvery: opts.progressEvery(), start: time.Now()}
	if opts.POR && opts.PORDisabledReason() == "" {
		e.por = newReducer(prog)
	}
	if err := e.initCheckpointer(); err != nil {
		return nil, err
	}
	if err := e.openDicts(man); err != nil {
		return nil, err
	}
	fr, err := readFrontier(opts.StoreDir)
	if err != nil {
		e.closeStores()
		return nil, err
	}
	if len(fr.Nodes) != man.FrontierLen || len(fr.Violations) != man.Violations {
		e.closeStores()
		return nil, fmt.Errorf("check: checkpoint frontier does not match its manifest (%d/%d nodes, %d/%d violations)",
			len(fr.Nodes), man.FrontierLen, len(fr.Violations), man.Violations)
	}

	// Continue the recorded statistics; replayed trace steps below are not
	// counted, so the resumed totals line up with an uninterrupted run's.
	e.result.Stats = man.Stats
	e.result.Violations = fr.Violations
	e.states.count.Store(int64(man.Stats.DistinctStates))
	e.prior = time.Duration(man.ElapsedNanos)
	if e.ckpt != nil {
		e.ckpt.lastStates = man.Stats.DistinctStates
	}
	if opts.ExactFingerprints {
		e.loadExact(fr)
	}

	globals := make([]*core.Global, len(fr.Nodes))
	for i := range fr.Nodes {
		g, err := e.replayNode(&fr.Nodes[i])
		if err != nil {
			e.closeStores()
			return nil, err
		}
		globals[i] = g
	}
	if err := e.runFrom(fr.Nodes, globals); err != nil {
		e.closeStores()
		return nil, err
	}
	e.result.Stats.Elapsed = e.prior + time.Since(e.start)
	e.finishStores()
	return &e.result, nil
}

// openDicts is initDicts for a resume: the hashed tiers reopen the spilled
// chunk files truncated to the manifest's recorded sizes.
func (e *explorer) openDicts(man *ckptManifest) error {
	if e.opts.ExactFingerprints {
		return e.initDicts()
	}
	openTier := func(sub string, merge store.MergeFunc, sizes []int64) (*store.Store, error) {
		st, err := store.Open(store.Options{
			Dir:         filepath.Join(e.opts.StoreDir, sub),
			Shards:      e.opts.StoreShards,
			MemPerShard: e.opts.StoreMemPerShard,
			Merge:       merge,
		}, sizes)
		if err != nil {
			return nil, fmt.Errorf("check: reopening visited store: %w", err)
		}
		e.stores = append(e.stores, st)
		return st, nil
	}
	st, err := openTier("states", nil, man.StateSizes)
	if err != nil {
		return err
	}
	e.states = newStateSet(st, false)
	if e.opts.Mode == DepthBounded {
		st, err := openTier("visited", dvMerge, man.VisitedSizes)
		if err != nil {
			return err
		}
		e.dvisited = newDepthVisited(st, false)
	} else {
		st, err := openTier("visited", minDelayMerge, man.VisitedSizes)
		if err != nil {
			return err
		}
		e.visited = newMinDelayMap(st, false)
	}
	return nil
}

// replayNode reconstructs a frontier node's global configuration by
// replaying its trace from the initial configuration. Fault steps replay as
// injections; every other step re-runs the recorded machine under the
// recorded choice bits. The replayed state's hash must match the recorded
// one — a changed program, sample, or hash scheme fails here with a pointed
// error rather than silently exploring the wrong space.
func (e *explorer) replayNode(cn *ckptNode) (*core.Global, error) {
	g := core.NewGlobal(e.prog, nil)
	g.DisableDedup = e.opts.DisableDedup
	g.YieldOnDequeue = e.opts.FineGrained
	if _, err := g.CreateMain(); err != nil {
		return nil, fmt.Errorf("check: resume replay: creating main machine: %w", err)
	}
	for i := range cn.Trace {
		step := &cn.Trace[i]
		if step.Fault != FaultNone {
			ok := false
			switch step.Fault {
			case FaultCrash:
				ok = g.InjectCrash(step.Machine)
			case FaultDrop:
				_, ok = g.InjectDrop(step.Machine)
			case FaultDup:
				_, ok = g.InjectDup(step.Machine)
			}
			if !ok {
				return nil, fmt.Errorf("check: resume replay diverged at step %d: %s fault on machine %d not applicable", i+1, step.Fault, step.Machine)
			}
			continue
		}
		out := g.RunToSchedPoint(step.Machine, &core.FixedChoices{Bits: step.Choices}, e.opts.MaxLocalSteps)
		if out.Kind != step.Outcome {
			return nil, fmt.Errorf("check: resume replay diverged at step %d: machine %d produced %v, checkpoint recorded %v (program changed since the checkpoint?)",
				i+1, step.Machine, out.Kind, step.Outcome)
		}
	}
	if g.Hash() != cn.Hash {
		return nil, fmt.Errorf("check: resume replay reached a different state than the checkpoint recorded (program changed since the checkpoint?)")
	}
	return g, nil
}

// runFrom dispatches the restored frontier to the configured mode's loop.
// The shared search node carries every mode's scheduler context, so the
// restore is uniform; fields a mode never set are zero in the checkpoint
// and stay zero here.
func (e *explorer) runFrom(nodes []ckptNode, globals []*core.Global) error {
	e.result.Setup = time.Since(e.start)
	e.result.Stats.Workers = 1 // parallelLoop overwrites with the resolved count
	frontier := make([]node, len(nodes))
	for i := range nodes {
		cn := &nodes[i]
		var sleep []sleepEntry
		if len(cn.Sleep) > 0 {
			sleep = make([]sleepEntry, len(cn.Sleep))
			for j, s := range cn.Sleep {
				sleep[j] = sleepEntry{id: s.ID, sentTo: s.SentTo, creates: s.Creates}
			}
		}
		frontier[i] = node{
			g:      globals[i],
			stack:  schedStack(cn.Stack),
			cursor: cn.Cursor,
			sleep:  sleep,
			delays: cn.Delays,
			faults: cn.Faults,
			depth:  cn.Depth,
			trace:  prefixOf(cn.Trace),
		}
	}
	switch e.opts.Mode {
	case DepthBounded, RoundRobinDelay:
		e.serialLoop(frontier)
	case DelayBounded:
		if e.opts.Workers > 1 || e.opts.Workers < 0 {
			e.parallelLoop(frontier, e.opts.Workers)
		} else {
			e.serialLoop(frontier)
		}
	default:
		return fmt.Errorf("check: unknown mode %d", e.opts.Mode)
	}
	if e.ckpt != nil && e.ckpt.err != nil {
		return fmt.Errorf("check: writing checkpoint: %w", e.ckpt.err)
	}
	return nil
}

// ckptNodes converts a live frontier into serialized nodes. All scheduler
// context travels unconditionally — gob encodes zero values compactly, and
// a mode ignores fields it never set.
func ckptNodes(stack []node) []ckptNode {
	out := make([]ckptNode, len(stack))
	for i := range stack {
		n := &stack[i]
		var sleep []ckptSleep
		if len(n.sleep) > 0 {
			sleep = make([]ckptSleep, len(n.sleep))
			for j := range n.sleep {
				en := &n.sleep[j]
				sleep[j] = ckptSleep{ID: en.id, SentTo: en.sentTo, Creates: en.creates}
			}
		}
		out[i] = ckptNode{
			Trace:  n.trace.steps(),
			Stack:  append([]core.MachineID(nil), n.stack...),
			Cursor: n.cursor,
			Sleep:  sleep,
			Delays: n.delays,
			Faults: n.faults,
			Depth:  n.depth,
			Hash:   n.g.Hash(),
		}
	}
	return out
}

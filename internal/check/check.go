// Package check implements systematic testing of P programs (§5 of the
// paper): explicit-state exploration of the closed program's operational
// semantics with the two bounding techniques the paper uses — depth
// bounding and delay-bounded scheduling with a causal-order delaying
// scheduler — plus the safety checks of Figure 6.
//
// The explorer interprets internal/core directly (the role Zing plays in
// the paper). Context switches happen only after sends and machine
// creations, the paper's atomicity reduction.
package check

import (
	"fmt"
	"path/filepath"
	"time"

	"pgo/internal/core"
	"pgo/internal/ir"
	"pgo/internal/store"
)

// Mode selects the bounding strategy.
type Mode int

const (
	// DepthBounded explores all interleavings up to a macro-step depth.
	DepthBounded Mode = iota
	// DelayBounded explores the schedules of the causal delaying scheduler
	// within a delay budget.
	DelayBounded
	// RoundRobinDelay is an ablation: a delaying scheduler whose base order
	// is round-robin over machine ids instead of the causal stack. The
	// paper's claim is that the causal order finds bugs at lower delay
	// budgets; this mode provides the comparison point.
	RoundRobinDelay
)

func (m Mode) String() string {
	switch m {
	case DepthBounded:
		return "depth-bounded"
	case DelayBounded:
		return "delay-bounded"
	case RoundRobinDelay:
		return "round-robin-delay"
	default:
		return "mode(?)"
	}
}

// Options configures an exploration.
type Options struct {
	Mode Mode
	// Bound is the depth bound (macro steps) or the delay budget.
	Bound int
	// MaxStates stops the search after this many distinct global states
	// (0 = unlimited). The search result is then marked truncated.
	MaxStates int
	// MaxLocalSteps bounds the small steps inside one atomic handler; an
	// overrun is a divergence violation (0 = core.DefaultMaxSteps).
	MaxLocalSteps int
	// StopAtFirstError ends the search at the first violation.
	StopAtFirstError bool
	// CollectGraph retains the explored state graph for liveness analysis.
	CollectGraph bool
	// Foreign supplies host foreign functions usable during verification
	// (pure data-path helpers); model bodies still take precedence.
	Foreign core.ForeignEnv
	// Progress, if non-nil, receives the running distinct-state count, at
	// most once per ProgressEvery distinct states.
	Progress func(states int)
	// ProgressEvery is the distinct-state interval between Progress calls:
	// 0 picks a default (4096), negative reports every distinct state. The
	// throttle keeps -progress runs off the exploration hot path.
	ProgressEvery int
	// StoreDir enables the tiered visited store's disk tier: shards of the
	// visited dictionaries spill to append-only chunk files under this
	// directory once they exceed StoreMemPerShard entries, bounding resident
	// memory. "" keeps every shard in memory. Requires the default hashed
	// fingerprint scheme; under ExactFingerprints the dictionaries stay
	// in-memory maps regardless (the auditing escape hatch).
	StoreDir string
	// StoreMemPerShard caps in-memory entries per store shard before a spill
	// (0 = never spill on size). Only meaningful with StoreDir set.
	StoreMemPerShard int
	// StoreShards is the store shard count (0 = default 64), rounded up to a
	// power of two.
	StoreShards int
	// CheckpointEvery writes a checkpoint under StoreDir every N distinct
	// states discovered (0 = no periodic checkpoints). Checkpointing requires
	// StoreDir and is incompatible with CollectGraph and Foreign.
	CheckpointEvery int
	// CheckpointStop suspends the search once N distinct states have been
	// discovered: a final checkpoint is written and the run ends with
	// Result.Checkpointed set (the CI kill-and-resume hook, and a way to
	// slice a long run into bounded sessions). 0 disables.
	CheckpointStop int
	// CheckpointRequest, if non-nil, is polled between search nodes; when it
	// returns true a checkpoint is written and the search suspends as with
	// CheckpointStop. pverify points it at a flag its SIGINT handler sets.
	CheckpointRequest func() bool
	// ProgramID identifies the program being checked (pverify uses the
	// SHA-256 of the source text). Recorded in checkpoint manifests; Resume
	// refuses a checkpoint whose ProgramID differs.
	ProgramID string
	// DisableDedup turns off the ⊕ queue dedup append (flooding ablation).
	DisableDedup bool
	// FineGrained also treats every event dequeue as a scheduling point,
	// ablating §5's atomicity reduction.
	FineGrained bool
	// Workers > 1 runs the delay-bounded search with that many goroutines
	// (0 or 1 = serial; negative = GOMAXPROCS). Only DelayBounded mode
	// parallelizes; other modes ignore Workers.
	Workers int
	// ExactFingerprints keys the visited and distinct-state sets by the
	// full canonical state encoding instead of its 128-bit hash. Slower and
	// much heavier on memory, but immune to hash collisions — an auditing
	// escape hatch (pverify -exact-fp). Both modes report identical
	// DistinctStates absent a collision.
	ExactFingerprints bool
	// POR enables partial-order reduction (por.go): nodes whose next
	// machine's macro steps provably commute with the rest of the system
	// expand only that machine. Verdict-preserving for the safety checks.
	// Composes with chaos (Faults > 0): faults are modeled as actions of an
	// implicit environment machine with their own independence conditions.
	// Composes with CollectGraph runs (liveness, coverage): the reducer then
	// additionally enforces the C3 cycle proviso, so every cycle in the
	// reduced graph retains a fully expanded node and lasso/coverage
	// analyses stay sound. Silently inactive under host foreign functions
	// (outside the static analysis) and the fine-grained ablation
	// (sub-macro-step scheduling points); see PORDisabledReason.
	POR bool
	// Faults is the chaos-mode fault budget: the maximum number of injected
	// environment faults (spontaneous crash, message drop, duplicate
	// delivery — see faults.go) along any single schedule. 0 disables fault
	// injection. Mirrors the delay budget: the explorers branch over every
	// fault placement within the budget.
	Faults int
	// FaultKinds selects which fault kinds chaos mode injects; the zero
	// value selects AllFaults. Ignored when Faults is 0.
	FaultKinds FaultSet
}

// StateKey identifies a distinct global configuration in the explorers'
// visited and distinct-state maps: the 128-bit hashed fingerprint by
// default, or the exact canonical serialization when
// Options.ExactFingerprints is set (hash left zero). A run uses one scheme
// throughout, so keys from the two schemes never mix in one map.
type StateKey struct {
	hash  core.Fp
	exact string
}

// keyOf fingerprints g under the configured scheme. Both Global.Hash and
// Global.Fingerprint cache per Global, so calling keyOf twice on the same
// unmutated Global (dedup + graph interning) computes the encoding once.
func (e *explorer) keyOf(g *core.Global) StateKey {
	if e.opts.ExactFingerprints {
		return StateKey{exact: g.Fingerprint()}
	}
	return StateKey{hash: g.Hash()}
}

// TraceStep is one scheduling decision, sufficient to replay a violation.
// A step with Fault != FaultNone is an injected environment fault (chaos
// mode), not a machine transition: Machine identifies the faulted machine,
// Event the dropped or duplicated entry, and Outcome/Delays/Choices are
// meaningless.
type TraceStep struct {
	Machine core.MachineID
	Type    string // machine type name
	Delays  int    // delays applied before this step (delay-bounded mode)
	Choices []bool // `*` outcomes consumed during the step
	Outcome core.OutKind
	Event   ir.EventID // sent event, when Outcome == OutSend; faulted event for drop/dup
	HasEv   bool
	Fault   FaultKind // FaultNone for ordinary steps
}

func (s TraceStep) String() string {
	if s.Fault != FaultNone {
		return fmt.Sprintf("%s#%d fault:%s", s.Type, s.Machine, s.Fault)
	}
	d := ""
	if s.Delays > 0 {
		d = fmt.Sprintf(" after %d delays", s.Delays)
	}
	return fmt.Sprintf("%s#%d %s%s", s.Type, s.Machine, s.Outcome, d)
}

// Violation is a safety violation with its reproducing schedule.
type Violation struct {
	Err   *core.Err
	Trace []TraceStep
}

func (v *Violation) String() string {
	return fmt.Sprintf("%v (schedule length %d)", v.Err, len(v.Trace))
}

// Stats summarizes an exploration.
type Stats struct {
	DistinctStates int // distinct global configurations discovered
	Transitions    int // macro steps executed
	SearchNodes    int // scheduler-state-qualified nodes visited
	FaultSteps     int // fault successors produced (chaos mode)
	ReducedStates  int // search nodes expanded with a singleton ample set (POR)
	AmpleSkips     int // enabled machines / schedule options pruned at reduced nodes (POR)
	ClaimRaces     int // parallel POR ample claims lost to a concurrent worker (always 0 serially)
	Workers        int // goroutines the search actually ran with (1 for the serial explorers)
	MaxDepth       int
	Quiescent      int // terminal states with no enabled machine
	Truncated      bool
	Elapsed        time.Duration
}

// Result is the outcome of an exploration.
type Result struct {
	Violations []Violation
	Stats      Stats
	// Setup is the wall time from explorer construction to the first expanded
	// node: the reducer's static facts, opening the stores and, on a resumed
	// run, replaying the frontier. Part of Stats.Elapsed, not of Stats — a
	// clock reading belongs in neither the resume-equivalence comparisons nor
	// the checkpoint manifest.
	Setup time.Duration
	Graph *Graph // non-nil iff Options.CollectGraph
	// StoreStats summarizes the tiered visited stores (both dictionaries
	// combined); nil under ExactFingerprints, which bypasses the store.
	StoreStats *store.Stats
	// StoreErr is the first spill/read error the stores latched, if any. The
	// search result is still correct — affected shards fall back to
	// memory-only operation — but the memory bound may not have held.
	StoreErr error
	// Checkpointed reports that the search was suspended at a checkpoint
	// (CheckpointStop or CheckpointRequest) rather than run to completion;
	// the run directory can be resumed with Resume. Stats and Violations
	// cover the work done so far.
	Checkpointed bool
}

// Errored reports whether any violation was found.
func (r *Result) Errored() bool { return len(r.Violations) > 0 }

// FirstViolation returns the first violation or nil.
func (r *Result) FirstViolation() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// Explore runs the configured search over prog, starting from the closed
// program's initial configuration (one instance of the main machine).
func Explore(prog *ir.Program, opts Options) (*Result, error) {
	e, err := newExplorer(prog, opts)
	if err != nil {
		return nil, err
	}
	g := core.NewGlobal(prog, opts.Foreign)
	g.DisableDedup = opts.DisableDedup
	g.YieldOnDequeue = opts.FineGrained
	if _, err := g.CreateMain(); err != nil {
		e.closeStores()
		return nil, fmt.Errorf("check: creating main machine: %w", err)
	}
	if err := e.run(g); err != nil {
		e.closeStores()
		return nil, err
	}
	e.result.Stats.Elapsed = e.prior + time.Since(e.start)
	e.result.Graph = e.graph
	e.finishStores()
	return &e.result, nil
}

// newExplorer builds an explorer with its visited dictionaries. The caller
// owns the stores afterwards (finishStores/closeStores).
func newExplorer(prog *ir.Program, opts Options) (*explorer, error) {
	e := &explorer{prog: prog, opts: opts, progEvery: opts.progressEvery(), start: time.Now()}
	if opts.CollectGraph {
		e.graph = NewGraph()
	}
	if opts.POR && opts.PORDisabledReason() == "" {
		e.por = newReducer(prog)
	}
	if err := e.initCheckpointer(); err != nil {
		return nil, err
	}
	if err := e.initDicts(); err != nil {
		return nil, err
	}
	return e, nil
}

// PORDisabledReason explains why a POR request would be (or was) forced
// off: a non-empty string names the incompatible option, "" means reduction
// runs. Callers surface it to users (pverify prints a notice and records it
// in the JSON report) so a -por run that silently explores unreduced is
// visible.
func (o *Options) PORDisabledReason() string {
	switch {
	case o.Foreign != nil:
		return "host foreign functions are outside the static independence analysis"
	case o.FineGrained:
		return "fine-grained mode adds sub-macro-step scheduling points the reducer does not model"
	}
	return ""
}

// run dispatches to the configured search from the initial configuration.
func (e *explorer) run(g *core.Global) error {
	e.result.Setup = time.Since(e.start)
	e.result.Stats.Workers = 1 // parallelLoop overwrites with the resolved count
	switch e.opts.Mode {
	case DepthBounded:
		e.depthBounded(g)
	case DelayBounded:
		if e.opts.Workers > 1 || e.opts.Workers < 0 {
			e.parallelDelayBounded(g, e.opts.Workers)
		} else {
			e.delayBounded(g)
		}
	case RoundRobinDelay:
		e.roundRobinDelay(g)
	default:
		return fmt.Errorf("check: unknown mode %d", e.opts.Mode)
	}
	if e.ckpt != nil && e.ckpt.err != nil {
		return fmt.Errorf("check: writing checkpoint: %w", e.ckpt.err)
	}
	return nil
}

// initDicts builds the distinct-state set and the mode's visited dictionary:
// tiered stores in the default hashed scheme (spilling under StoreDir when
// set), sharded in-memory maps under ExactFingerprints.
func (e *explorer) initDicts() error {
	exact := e.opts.ExactFingerprints
	newTier := func(sub string, merge store.MergeFunc) (*store.Store, error) {
		dir := ""
		if e.opts.StoreDir != "" {
			dir = filepath.Join(e.opts.StoreDir, sub)
		}
		st, err := store.New(store.Options{
			Dir:         dir,
			Shards:      e.opts.StoreShards,
			MemPerShard: e.opts.StoreMemPerShard,
			Merge:       merge,
		})
		if err != nil {
			return nil, fmt.Errorf("check: visited store: %w", err)
		}
		e.stores = append(e.stores, st)
		return st, nil
	}
	if exact {
		e.states = newStateSet(nil, true)
	} else {
		st, err := newTier("states", nil)
		if err != nil {
			return err
		}
		e.states = newStateSet(st, false)
	}
	switch {
	case exact && e.opts.Mode == DepthBounded:
		e.dvisited = newDepthVisited(nil, true)
	case e.opts.Mode == DepthBounded:
		st, err := newTier("visited", dvMerge)
		if err != nil {
			return err
		}
		e.dvisited = newDepthVisited(st, false)
	case exact:
		e.visited = newMinDelayMap(nil, true)
	default:
		st, err := newTier("visited", minDelayMerge)
		if err != nil {
			return err
		}
		e.visited = newMinDelayMap(st, false)
	}
	return nil
}

// finishStores folds the stores' occupancy and latched errors into the
// result, then closes them.
func (e *explorer) finishStores() {
	if len(e.stores) > 0 {
		agg := store.Stats{}
		for _, st := range e.stores {
			agg.Add(st.Stats())
			if err := st.Err(); err != nil && e.result.StoreErr == nil {
				e.result.StoreErr = err
			}
		}
		e.result.StoreStats = &agg
	}
	e.closeStores()
}

func (e *explorer) closeStores() {
	for _, st := range e.stores {
		st.Close()
	}
	e.stores = nil
}

type explorer struct {
	prog   *ir.Program
	opts   Options
	result Result
	graph  *Graph
	// por is the partial-order reducer, nil when reduction is off or gated
	// off (foreign env, fine-grained mode — see Options.PORDisabledReason).
	por *reducer

	// states is the distinct-state set; visited (delay-bounded, round-robin)
	// or dvisited (depth-bounded) is the mode's re-expansion dictionary.
	// stores holds the tiered stores behind them (empty in exact mode).
	states   *stateSet
	visited  *minDelayMap
	dvisited *depthVisited
	stores   []*store.Store

	// progEvery is the resolved Progress throttle interval.
	progEvery int
	// stop is set when the search should end (first error, state cap).
	stop bool

	// ckpt drives checkpoint writes, nil when checkpointing is off. start is
	// this process's run start; prior is the elapsed time recorded by the
	// checkpoint a resumed run continues from (zero for fresh runs).
	ckpt  *checkpointer
	start time.Time
	prior time.Duration
}

// defaultProgressEvery is the Progress throttle when ProgressEvery is 0:
// frequent enough for a live counter, far off the per-state hot path.
const defaultProgressEvery = 4096

func (o *Options) progressEvery() int {
	switch {
	case o.ProgressEvery > 0:
		return o.ProgressEvery
	case o.ProgressEvery < 0:
		return 1
	}
	return defaultProgressEvery
}

// Stats invariant, shared by the serial and parallel explorers so the
// numbers mean the same thing in both:
//
//  1. DistinctStates counts every successor fingerprint ever produced,
//     noted immediately after the macro step — before (and regardless of)
//     the visited-set claim that decides re-expansion.
//  2. Transitions counts every RunToSchedPoint call, including error
//     outcomes and `*` choice-string retries; once the search is stopped
//     (cap or first error) no further transitions are executed.
//  3. SearchNodes counts nodes taken from the work list for expansion.
//  4. Quiescent counts expanded nodes with no enabled machine (including
//     an initial configuration with no live machine at all).
//  5. FaultSteps counts fault successors processed (chaos mode): faults
//     are generated after a node's ordinary successors, in the
//     deterministic faultBranches order, and only for nodes with at least
//     one enabled machine; a stopped search processes no further faults.
//     At a node reduced to machine x's ample set, only x's own fault
//     branches are emitted (the environment machine's other faults commute
//     with x and regenerate at the descendants with the budget intact);
//     each such branch is counted exactly once even when the strict cycle
//     proviso examines it before accepting the reduction.
//
// The order per successor (ordinary and fault alike) is: note state ->
// intern graph node -> claim visited -> push.
//
// Partial-order reduction bends rule 1 in one documented way: an
// ample-seed candidate is expanded before the reducer decides whether to
// keep it (its Transitions are counted and its error branches recorded as
// violations either way), but its non-error successors are noted only when
// they are actually processed — i.e. when the seed is accepted, or when
// the node falls back to full expansion. A rejected candidate at an
// accepted node contributes Transitions without DistinctStates.
// TestSerialParallelStatsEquivalence asserts the equivalence on real
// programs, with chaos both off and on, and POR both off and on.

// noteState registers a global fingerprint, returning true if it is new.
func (e *explorer) noteState(fp StateKey) bool {
	isNew, n := e.states.add(fp)
	if !isNew {
		return false
	}
	e.result.Stats.DistinctStates = n
	if e.opts.Progress != nil && n%e.progEvery == 0 {
		e.opts.Progress(n)
	}
	if e.opts.MaxStates > 0 && n >= e.opts.MaxStates {
		e.result.Stats.Truncated = true
		e.stop = true
	}
	return true
}

func (e *explorer) addViolation(err *core.Err, trace []TraceStep) {
	e.result.Violations = append(e.result.Violations, Violation{Err: err, Trace: trace})
	if e.opts.StopAtFirstError {
		e.stop = true
	}
}

// successor holds one expanded macro step from a search node.
type successor struct {
	global  *core.Global
	outcome core.Outcome
	choices []bool
	fp      StateKey
}

// maxChoiceStrings caps the `*` choice strings enumerated per macro step.
// A well-formed ghost machine reaches a scheduling point after a bounded
// number of choices; the cap is a defense against ghost code that loops on
// choices without ever sending (the overflow marks the search truncated).
const maxChoiceStrings = 4096

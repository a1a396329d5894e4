package check

import (
	"pgo/internal/core"
)

// The shared successor-generation core. All four explorers — depth-bounded,
// delay-bounded, round-robin-delay, and the parallel delay-bounded pool —
// expand a search node the same way: enumerate the strategy's scheduling
// moves, run the chosen machine under every `*` choice string, note/intern/
// claim/push each successor, try a singleton ample set first when POR is on,
// and branch over the environment's fault moves under a chaos budget. The
// strategies differ only in their frontier discipline (delay budget, depth
// bound, round-robin cursor, worker pool) and in the shape of their visited
// claims; expandNode owns everything else. The drivers in delay.go, rr.go,
// depth.go, and parallel.go supply the move enumeration inputs and an
// emitter for their bookkeeping.

// node is one search node, shared by every explorer. The per-strategy
// scheduler context (delay stack, round-robin cursor, sleep set) rides along
// and is ignored by the other modes; checkpoints serialize the frontier as
// these (ckptNode carries the same fields).
type node struct {
	g      *core.Global
	stack  schedStack   // delay-bounded: the delaying scheduler's stack
	cursor int          // round-robin: resume index into the live-id order
	sleep  []sleepEntry // depth-bounded POR: sleeping machines + footprints
	delays int
	faults int
	depth  int
	trace  *prefix // the schedule that reached g; nil at the initial node
}

// prefix is one immutable link of a node's counterexample prefix: the step
// that produced the node and the link of the node it was taken from. Pushing
// a successor allocates one link whatever the depth; siblings — and the
// parallel workers expanding them — share their parent's chain, so a link is
// never written after extend returns. A nil *prefix is the empty schedule.
type prefix struct {
	parent *prefix
	step   TraceStep
	length int
}

// extend returns the prefix p followed by step.
func (p *prefix) extend(step TraceStep) *prefix {
	return &prefix{parent: p, step: step, length: p.len() + 1}
}

func (p *prefix) len() int {
	if p == nil {
		return 0
	}
	return p.length
}

// steps materializes the schedule, oldest step first, as a slice the caller
// owns. Only the consumers of whole schedules pay for it: a violation and a
// checkpoint write.
func (p *prefix) steps() []TraceStep {
	out := make([]TraceStep, p.len())
	for l := p; l != nil; l = l.parent {
		out[l.length-1] = l.step
	}
	return out
}

// prefixOf links a materialized schedule back up (checkpoint restore).
func prefixOf(steps []TraceStep) *prefix {
	var p *prefix
	for _, s := range steps {
		p = p.extend(s)
	}
	return p
}

// move is one strategy-specific way to pick the next machine at a node.
type move struct {
	id     core.MachineID
	cost   int        // delays applied before the step (delay + rr modes)
	stack  schedStack // delay mode: the post-delay stack, id on top
	resume int        // rr mode: cursor position after id runs
}

// emitter abstracts the serial explorer's direct bookkeeping from the
// parallel explorer's atomics and locks, so expandNode is written once.
// The serial implementation is serialEmitter; the parallel one is
// *pexplorer itself.
type emitter interface {
	// stopped reports that the search is over (state cap, first error).
	stopped() bool
	// note registers a successor fingerprint in the distinct-state set,
	// reporting whether it was globally new (this call inserted it).
	note(fp StateKey) bool
	// violation records an error outcome; trace is freshly materialized and
	// becomes the violation's.
	violation(err *core.Err, trace []TraceStep)
	countTransition()
	markTruncated()
	// searchNode counts a node taken from the work list and folds its depth
	// into MaxDepth.
	searchNode(depth int)
	quiescentNode()
	countFaultStep()
	// reduced counts a node expanded with a singleton ample set, with the
	// number of pruned moves.
	reduced(skips int)
	// sleepSkips counts enabled machines pruned by sleep sets (depth mode).
	sleepSkips(n int)
	// claimRace counts an ample claim lost to a concurrent worker;
	// tracksRaces gates the pre-check that feeds it (parallel only — the
	// serial explorers never pay for it and report ClaimRaces == 0 by
	// construction).
	claimRace()
	tracksRaces() bool
	graphNode(fp StateKey, g *core.Global) NodeID
	graphEdge(from NodeID, fp StateKey, g *core.Global, m core.MachineID, deq []core.QEntry)
	push(n node)
}

// serialEmitter adapts the single-threaded explorer state to the emitter
// interface. frontier points at the caller's LIFO stack variable.
type serialEmitter struct {
	e        *explorer
	frontier *[]node
}

func (s *serialEmitter) stopped() bool                                { return s.e.stop }
func (s *serialEmitter) note(fp StateKey) bool                        { return s.e.noteState(fp) }
func (s *serialEmitter) violation(err *core.Err, trace []TraceStep)   { s.e.addViolation(err, trace) }
func (s *serialEmitter) countTransition()                             { s.e.result.Stats.Transitions++ }
func (s *serialEmitter) markTruncated()                               { s.e.result.Stats.Truncated = true }
func (s *serialEmitter) quiescentNode()                               { s.e.result.Stats.Quiescent++ }
func (s *serialEmitter) countFaultStep()                              { s.e.result.Stats.FaultSteps++ }
func (s *serialEmitter) sleepSkips(n int)                             { s.e.result.Stats.AmpleSkips += n }
func (s *serialEmitter) claimRace()                                   {}
func (s *serialEmitter) tracksRaces() bool                            { return false }
func (s *serialEmitter) graphNode(fp StateKey, g *core.Global) NodeID { return s.e.graph.Node(fp, g) }
func (s *serialEmitter) push(n node)                                  { *s.frontier = append(*s.frontier, n) }

func (s *serialEmitter) searchNode(depth int) {
	s.e.result.Stats.SearchNodes++
	if depth > s.e.result.Stats.MaxDepth {
		s.e.result.Stats.MaxDepth = depth
	}
}

func (s *serialEmitter) reduced(skips int) {
	s.e.result.Stats.ReducedStates++
	s.e.result.Stats.AmpleSkips += skips
}

func (s *serialEmitter) graphEdge(from NodeID, fp StateKey, g *core.Global, m core.MachineID, deq []core.QEntry) {
	to := s.e.graph.Node(fp, g)
	s.e.graph.AddEdge(from, to, m, deq)
}

// serialLoop is the shared single-threaded driver: a LIFO frontier with the
// checkpoint hook at the top of every iteration. All three serial modes run
// through it; the parallel explorer replaces it with the worker pool in
// parallel.go.
func (e *explorer) serialLoop(stack []node) {
	em := &serialEmitter{e: e, frontier: &stack}
	for len(stack) > 0 && !e.stop {
		if e.ckpt != nil && e.ckptSerial(func() []ckptNode { return ckptNodes(stack) }) {
			return
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.expandNode(em, &n)
	}
}

// procResult summarizes one processed batch of successors.
type procResult struct {
	pushed bool // at least one successor entered the frontier as new work
	fresh  int  // successors whose state fingerprint was globally new
	total  int  // successors processed before any stop
}

// expandNode is the shared per-node core: move enumeration, quiescence
// accounting, graph interning, POR ample selection with the cycle proviso,
// per-successor processing, and chaos fault branching.
func (e *explorer) expandNode(em emitter, n *node) {
	em.searchNode(n.depth)
	mode := e.opts.Mode

	// Strategy-specific move enumeration. An early return means the node has
	// no work at all (bound reached, or quiescent); a fall-through with no
	// moves still generates fault branches (depth mode: every enabled
	// machine can be asleep while the environment still has moves).
	var moves []move
	switch mode {
	case DepthBounded:
		if e.opts.Bound > 0 && n.depth >= e.opts.Bound {
			return
		}
		// Candidates: enabled machines not asleep. Sleepers' transitions
		// were explored at the ancestor that put them to sleep.
		anyEnabled := false
		asleep := 0
		for _, id := range n.g.LiveIDs() {
			if !n.g.Enabled(id) {
				continue
			}
			anyEnabled = true
			if sleepingIn(n.sleep, id) {
				asleep++
				continue
			}
			moves = append(moves, move{id: id})
		}
		if !anyEnabled {
			em.quiescentNode()
			return
		}
		em.sleepSkips(asleep)
	case DelayBounded:
		sched := n.stack.popDisabled(n.g)
		if len(sched) == 0 {
			// Defensive: the invariant is that every enabled machine is on
			// the stack; re-seed if an enabled machine exists anyway.
			var enabled []core.MachineID
			for _, id := range n.g.LiveIDs() {
				if n.g.Enabled(id) {
					enabled = append(enabled, id)
				}
			}
			if len(enabled) == 0 {
				em.quiescentNode()
				return
			}
			sched = schedStack{enabled[0]}
		}
		for _, opt := range scheduleOptions(n.g, sched, e.opts.Bound-n.delays) {
			moves = append(moves, move{id: opt.stack.top(), cost: opt.cost, stack: opt.stack})
		}
	case RoundRobinDelay:
		ids := n.g.IDs()
		if len(ids) == 0 {
			em.quiescentNode()
			return
		}
		cost := 0
		for off := 0; off < len(ids); off++ {
			idx := (n.cursor + off) % len(ids)
			id := ids[idx]
			if !n.g.Enabled(id) {
				continue // skipping a disabled machine is free
			}
			if cost > e.opts.Bound-n.delays {
				break
			}
			moves = append(moves, move{id: id, cost: cost, resume: (idx + 1) % len(ids)})
			cost++ // delaying past an enabled machine costs one delay
		}
		if len(moves) == 0 {
			enabled := false
			for _, id := range ids {
				if n.g.Enabled(id) {
					enabled = true
					break
				}
			}
			if !enabled {
				em.quiescentNode()
			}
			return
		}
	}

	var fromNode NodeID
	if e.graph != nil {
		// keyOf hits n.g's fingerprint cache (computed when n.g was a
		// successor), so graph interning costs one map lookup.
		fromNode = em.graphNode(e.keyOf(n.g), n.g)
	}

	// pending is the fault kinds the environment can still inject at this
	// node (zero when the budget is spent or chaos is off). It tightens the
	// ample conditions — fault moves must commute with a reduced node's
	// postponed actions too — and drives the fault branching below.
	var pending FaultSet
	if n.faults < e.opts.Faults {
		pending = e.opts.faultKinds()
	}

	// POR: try singleton ample seeds. Delay-based modes try only the
	// scheduler's own zero-cost choice (committing to it prunes every delay
	// branch); the depth mode tries the first porMaxSeeds candidates. A
	// candidate is expanded before the decision; rejected candidates'
	// branches are reused by the full expansion, never re-executed.
	var cache [][]successor
	ampleIdx := -1
	if e.por != nil && len(moves) >= 2 {
		maxSeeds := 1
		if mode == DepthBounded {
			maxSeeds = porMaxSeeds
		}
		for i := range moves {
			if i >= maxSeeds || em.stopped() {
				break
			}
			succs := e.expand(em, n.g, moves[i].id, n.trace, moves[i].cost)
			cache = append(cache, succs)
			if !em.stopped() && e.por.ample(n.g, moves[i].id, succs, pending) {
				ampleIdx = i
				break
			}
		}
	}
	ampleDone := false   // ample seed's successors already processed
	xFaultsDone := false // ample machine's fault branches already processed
	if ampleIdx >= 0 {
		mv := &moves[ampleIdx]
		// The parallel cycle proviso is per-worker and racy — a claim lost
		// to a concurrent worker can force a full expansion a serial search
		// would have reduced — which costs reduction, never soundness: a
		// lost claim means the successor was (or is being) expanded
		// elsewhere. Stats.ClaimRaces counts exactly those losses: a
		// successor whose visited key was still claimable just before
		// processing but whose claim failed anyway was stolen mid-node,
		// whereas a key already covered at the pre-check is the genuine
		// cycle proviso (the outcome a serial search would also reach). With
		// one worker nothing can intervene between the pre-check and the
		// claim, so ClaimRaces stays 0 and the serial stats equivalence
		// holds.
		var claimable []bool
		if em.tracksRaces() {
			claimable = e.preclaimable(n, mv, cache[ampleIdx])
		}
		r := e.processSuccs(em, n, fromNode, mv, cache[ampleIdx], n.sleep)
		// Cycle proviso ("ignoring problem"). Safety-only runs use the
		// visited-set variant: reduce iff an ample successor entered the
		// frontier as new work. Graph-collecting runs (liveness, coverage)
		// use the strict C3 variant: reduce only if every ample successor —
		// fault branches included — is a globally new state, so no cycle of
		// the collected graph consists solely of reduced nodes (DESIGN.md
		// has the discovery-order argument).
		strict := e.graph != nil
		accept := r.pushed
		if strict {
			accept = r.pushed && r.fresh == r.total
		}
		if accept && pending != 0 {
			// Environment-machine chaos at a reduced node: only the ample
			// machine's own fault branches are emitted — the coalition's
			// faults commute with x (the ample conditions checked) and
			// regenerate at descendants with the budget intact.
			fr := e.processFaults(em, n, fromNode, e.machineFaultBranches(n.g, mv.id))
			xFaultsDone = true
			if strict && fr.fresh != fr.total {
				accept = false
			}
		}
		if accept {
			em.reduced(len(moves) - 1)
			return
		}
		if !r.pushed && claimable != nil && !em.stopped() {
			for _, c := range claimable {
				if c {
					em.claimRace()
				}
			}
		}
		ampleDone = true
	}

	// Full expansion. With POR on in depth mode, each processed machine goes
	// to sleep in the subtrees of its later siblings.
	base := n.sleep
	for i := range moves {
		if em.stopped() {
			return
		}
		mv := &moves[i]
		var succs []successor
		if i < len(cache) {
			succs = cache[i]
		} else {
			succs = e.expand(em, n.g, mv.id, n.trace, mv.cost)
		}
		if i != ampleIdx || !ampleDone {
			e.processSuccs(em, n, fromNode, mv, succs, base)
		}
		if mode == DepthBounded && e.por != nil {
			next := make([]sleepEntry, len(base), len(base)+1)
			copy(next, base)
			base = append(next, sleepFootprint(mv.id, succs))
		}
	}
	if em.stopped() {
		return
	}

	// Chaos mode: the environment's fault moves, after the scheduler's, in
	// the deterministic faultBranches order. If the ample path above already
	// emitted the seed machine's branches (a strict-proviso rejection after
	// the fault check), they are skipped here rather than double-counted.
	if pending != 0 {
		var branches []faultBranch
		if mode == DepthBounded && e.por != nil && len(n.sleep) > 0 {
			// Sleep sets prune fault branches too: a sleeping machine's
			// faults were emitted at the node where it fell asleep, and the
			// machine steps since cannot have changed its queue or liveness —
			// a send to it would have woken it, a fault child resets the
			// sleep set, and it only acts (or halts) when scheduled. Its
			// crash/drop/dup branches here are the path-transported copies of
			// branches already explored.
			kinds := e.opts.faultKinds()
			for _, id := range n.g.LiveIDs() {
				if sleepingIn(n.sleep, id) {
					continue
				}
				branches = e.appendFaultBranches(branches, n.g, id, kinds)
			}
		} else {
			branches = e.faultBranches(n.g)
		}
		if xFaultsDone {
			kept := branches[:0]
			for _, fb := range branches {
				if fb.step.Machine != moves[ampleIdx].id {
					kept = append(kept, fb)
				}
			}
			branches = kept
		}
		e.processFaults(em, n, fromNode, branches)
	}
}

// processSuccs runs the per-successor body for one move: note the state,
// intern the graph edge, claim the mode's visited key, and push new work.
func (e *explorer) processSuccs(em emitter, n *node, fromNode NodeID, mv *move, succs []successor, base []sleepEntry) procResult {
	exactFP := e.opts.ExactFingerprints
	mode := e.opts.Mode
	var r procResult
	for i := range succs {
		s := &succs[i]
		if em.stopped() {
			return r
		}
		r.total++
		if em.note(s.fp) {
			r.fresh++
		}
		if e.graph != nil {
			em.graphEdge(fromNode, s.fp, s.global, mv.id, s.outcome.Dequeued)
		}
		child := node{g: s.global, faults: n.faults, depth: n.depth + 1}
		claimed := false
		switch mode {
		case DelayBounded:
			child.stack = updateStack(mv.stack, mv.id, s.outcome)
			child.delays = n.delays + mv.cost
			claimed = e.visited.claim(s.fp, child.stack.digest(exactFP), n.faults, child.delays)
		case RoundRobinDelay:
			// The round-robin cursor resumes after the scheduled machine
			// unless it is still runnable mid-burst (a send or creation
			// keeps it scheduled, matching run-to-completion).
			cursor := mv.resume
			if s.outcome.Kind == core.OutSend || s.outcome.Kind == core.OutNew || s.outcome.Kind == core.OutYield {
				cursor = indexOf(s.global.IDs(), mv.id)
			}
			child.cursor = cursor
			child.delays = n.delays + mv.cost
			claimed = e.visited.claim(s.fp, cursorAux(cursor, exactFP), n.faults, child.delays)
		case DepthBounded:
			child.sleep = childSleep(base, mv.id, &s.outcome)
			claimed = e.dvisited.claim(s.fp, n.faults, child.depth, sleepIDs(child.sleep))
		}
		if !claimed {
			continue
		}
		step := TraceStep{
			Machine: mv.id,
			Type:    e.prog.Machines[n.g.Lookup(mv.id).Type].Name,
			Delays:  mv.cost,
			Choices: s.choices,
			Outcome: s.outcome.Kind,
		}
		if s.outcome.Kind == core.OutSend {
			step.Event = s.outcome.SentEvent
			step.HasEv = true
		}
		child.trace = n.trace.extend(step)
		em.push(child)
		r.pushed = true
	}
	return r
}

// processFaults runs the per-successor body for a batch of fault branches.
// Fault steps keep the scheduler context (a crashed machine is popped lazily
// by popDisabled; the round-robin cursor is unchanged — a fault is the
// environment's move, not the scheduler's), consume one unit of fault budget,
// and reset the sleep set (a fault is never asleep, and the sleepers'
// footprints don't cover environment moves).
func (e *explorer) processFaults(em emitter, n *node, fromNode NodeID, branches []faultBranch) procResult {
	exactFP := e.opts.ExactFingerprints
	mode := e.opts.Mode
	var aux stackKey
	switch mode {
	case DelayBounded:
		aux = n.stack.digest(exactFP)
	case RoundRobinDelay:
		aux = cursorAux(n.cursor, exactFP)
	}
	var r procResult
	for i := range branches {
		fb := &branches[i]
		if em.stopped() {
			return r
		}
		em.countFaultStep()
		r.total++
		if em.note(fb.fp) {
			r.fresh++
		}
		if e.graph != nil {
			em.graphEdge(fromNode, fb.fp, fb.global, fb.step.Machine, nil)
		}
		claimed := false
		if mode == DepthBounded {
			claimed = e.dvisited.claim(fb.fp, n.faults+1, n.depth+1, nil)
		} else {
			claimed = e.visited.claim(fb.fp, aux, n.faults+1, n.delays)
		}
		if !claimed {
			continue
		}
		em.push(node{
			g:      fb.global,
			stack:  n.stack,
			cursor: n.cursor,
			delays: n.delays,
			faults: n.faults + 1,
			depth:  n.depth + 1,
			trace:  n.trace.extend(fb.step),
		})
		r.pushed = true
	}
	return r
}

// preclaimable records, per ample successor, whether its visited key is
// still claimable just before processing — the parallel ClaimRaces
// pre-check (see the comment at the ample site in expandNode). Only the
// delay-bounded mode runs in parallel.
func (e *explorer) preclaimable(n *node, mv *move, succs []successor) []bool {
	if e.opts.Mode != DelayBounded {
		return nil
	}
	exactFP := e.opts.ExactFingerprints
	delays := n.delays + mv.cost
	out := make([]bool, len(succs))
	for i := range succs {
		s := &succs[i]
		aux := updateStack(mv.stack, mv.id, s.outcome).digest(exactFP)
		prev, ok := e.visited.get(s.fp, aux, n.faults)
		out[i] = !ok || prev > delays
	}
	return out
}

// expand runs machine id from g under every `*` choice string and returns
// the successors. Errors are recorded as violations immediately (the node's
// schedule + the failing step, materialized here).
func (e *explorer) expand(em emitter, g *core.Global, id core.MachineID, trace *prefix, delays int) []successor {
	var succs []successor
	cs := &core.FixedChoices{}
	for tries := 0; ; tries++ {
		if tries >= maxChoiceStrings {
			em.markTruncated()
			return succs
		}
		// Stop executing transitions once the search is over (state cap or
		// first error), so Stats.Transitions means the same thing in the
		// serial and parallel explorers.
		if em.stopped() {
			return succs
		}
		clone := g.Clone()
		cs.Reset()
		out := clone.RunToSchedPoint(id, cs, e.opts.MaxLocalSteps)
		em.countTransition()
		bits := append([]bool(nil), cs.Bits...)
		if out.Kind == core.OutError {
			step := TraceStep{
				Machine: id,
				Type:    e.prog.Machines[g.Lookup(id).Type].Name,
				Delays:  delays,
				Choices: bits,
				Outcome: out.Kind,
			}
			em.violation(out.Err, trace.extend(step).steps())
			if em.stopped() {
				return succs
			}
		} else {
			succs = append(succs, successor{
				global:  clone,
				outcome: out,
				choices: bits,
				fp:      e.keyOf(clone),
			})
		}
		if !cs.NextString() {
			return succs
		}
	}
}

package analysis

import (
	"pgo/internal/ir"
)

// tokens is a trigger set: the events whose handling can be in progress when
// a piece of code executes, plus two distinguished tokens — Startup (the
// code can run during machine initialization, before any event arrived) and
// Unknown (the context could not be resolved statically).
type tokens struct {
	ev      ir.EventSet
	startup bool
	unknown bool
}

func (t *tokens) addEvent(e ir.EventID) bool {
	if t.ev.Contains(e) {
		return false
	}
	t.ev.Add(e)
	return true
}

func (t *tokens) merge(o *tokens) bool {
	changed := false
	for _, e := range o.ev.Events() {
		if t.addEvent(e) {
			changed = true
		}
	}
	if o.startup && !t.startup {
		t.startup = true
		changed = true
	}
	if o.unknown && !t.unknown {
		t.unknown = true
		changed = true
	}
	return changed
}

// correlatedWith reports whether every context that reaches this code is the
// handling of an event drawn from set — i.e. the code only ever runs as a
// response to one of those events. Startup or Unknown contexts break the
// correlation.
func (t *tokens) correlatedWith(set ir.EventSet) bool {
	if t.startup || t.unknown {
		return false
	}
	for _, e := range t.ev.Events() {
		if !set.Contains(e) {
			return false
		}
	}
	return true
}

// pts is a type-level points-to set for id-typed values: the machine types a
// value may reference. unknown marks values that escape the abstraction
// (foreign-call results).
type pts struct {
	types   []bool
	unknown bool
}

func newPts(n int) *pts { return &pts{types: make([]bool, n)} }

func (p *pts) add(t ir.MachineTypeID) bool {
	if p.types[t] {
		return false
	}
	p.types[t] = true
	return true
}

func (p *pts) addUnknown() bool {
	if p.unknown {
		return false
	}
	p.unknown = true
	return true
}

func (p *pts) merge(o *pts) bool {
	changed := false
	for i, b := range o.types {
		if b && !p.types[i] {
			p.types[i] = true
			changed = true
		}
	}
	if o.unknown && !p.unknown {
		p.unknown = true
		changed = true
	}
	return changed
}

// single returns the unique machine type the value can reference, if the set
// is a definite singleton.
func (p *pts) single() (ir.MachineTypeID, bool) {
	if p.unknown {
		return 0, false
	}
	found := ir.MachineTypeID(-1)
	for i, b := range p.types {
		if !b {
			continue
		}
		if found >= 0 {
			return 0, false
		}
		found = ir.MachineTypeID(i)
	}
	if found < 0 {
		return 0, false
	}
	return found, true
}

// ckind distinguishes the code containers of a machine.
type ckind uint8

const (
	cEntry ckind = iota
	cExit
	cAction
	cModel
)

// container is one straight-line code body of a machine (a state's entry or
// exit block, an action body, or a foreign-function model), together with
// the states whose execution can run it and its computed trigger set.
type container struct {
	kind   ckind
	state  ir.StateID // cEntry / cExit
	act    ir.ActionID
	fn     ir.ForeignID
	body   []*ir.Stmt
	owners []ir.StateID // states that can execute this code
	trig   tokens
}

// machFacts holds the per-machine analysis facts.
type machFacts struct {
	id      ir.MachineTypeID
	m       *ir.Machine
	reach   bool
	stReach []bool

	conts   []*container
	entryOf []int // StateID -> container index
	exitOf  []int
	actOf   []int // ActionID -> container index
	modelOf []int // ForeignID -> container index, -1 when the foreign has no model

	raised ir.EventSet // events raised anywhere in the machine

	// raiseAdj connects states whose entry raises an event to the step or
	// call target the raise drives them to — movement that costs no dequeue.
	// raiseCycle marks states on a cycle of such edges: code they own can
	// re-execute without the machine ever returning to its queue.
	raiseAdj   [][]int
	raiseCycle []bool

	// bottom[s] reports that s can be the state of a frame with nothing
	// below it on the call stack (it is step-reachable from Init), so an
	// event uncovered by s pops to an empty stack.
	bottom []bool
	// ancestors[s] lists the states that can sit directly below s's frame:
	// the states whose push (call transition or call statement) created the
	// frame s lives in.
	ancestors [][]ir.StateID

	cov     [][]bool // [state][event]: trans, action, or defer in the state itself
	effCov  [][]bool // cov plus coverage inherited from every possible caller chain
	mayRest []bool   // entry code can complete, leaving the machine ready to dequeue
}

// sendSite is one SSend statement in a reachable machine.
type sendSite struct {
	from   ir.MachineTypeID
	cont   *container
	st     *ir.Stmt
	tgt    *pts
	inLoop bool // lexically inside a while loop
}

// facts bundles every computed abstraction over one program.
type facts struct {
	p  *ir.Program
	mf []*machFacts

	varPts     [][]*pts
	payloadPts []*pts

	sites   []*sendSite
	inbox   []ir.EventSet   // [machine] events some reachable site may send to it
	sendsTo [][]ir.EventSet // [from][to] events from may send to to
	// definiteAt[m][e] is a send site whose target resolves to exactly {m},
	// nil when no such site exists.
	definiteAt [][]*sendSite
	firstAt    [][]*sendSite // first (possibly ambiguous) site per (m, e)
	sentAny    ir.EventSet   // events with at least one reachable send site
	raisedAny  ir.EventSet   // events raised in at least one reachable machine

	// pdVar[m][v] marks id variables of m whose value only ever comes from
	// m's own event payloads (or null): ids the peer mailed in. A send whose
	// target is payload-derived answers a specific correspondent.
	pdVar [][]bool

	multi []bool        // machine type can have several live instances
	spont []ir.EventSet // inbox events that can arrive unprovoked
	// spontRe narrows spont to events with a recurring unprovoked source; the
	// rest arrive at most during the sender's one startup burst, and onceAt
	// records the receiver states such a burst can still find it in.
	spontRe []ir.EventSet
	onceAt  []map[ir.EventID][]bool

	pend [][]ir.EventSet // [machine][state] over-approximate pending-on-entry
}

func newFacts(p *ir.Program) *facts {
	f := newSiteFacts(p)
	f.payloadFlow()
	f.raiseCycles()
	f.frames()
	f.coverage()
	f.triggers()
	f.multiplicity()
	f.classify()
	f.resting()
	f.pending()
	return f
}

// newSiteFacts runs the pipeline up to the send sites — containers,
// reachability, points-to — which is all PORIndependence reads; the later
// stages only add fields and never revise these.
func newSiteFacts(p *ir.Program) *facts {
	f := &facts{p: p}
	f.buildContainers()
	f.machineReachability()
	f.stateReachability()
	f.pointsTo()
	f.collectSites()
	return f
}

// ------------------------------------------------------------ construction

func (f *facts) buildContainers() {
	for mi, m := range f.p.Machines {
		mf := &machFacts{
			id:      ir.MachineTypeID(mi),
			m:       m,
			stReach: make([]bool, len(m.States)),
			entryOf: make([]int, len(m.States)),
			exitOf:  make([]int, len(m.States)),
			actOf:   make([]int, len(m.Actions)),
			modelOf: make([]int, len(m.Foreigns)),
		}
		for _, s := range m.States {
			mf.entryOf[s.ID] = len(mf.conts)
			mf.conts = append(mf.conts, &container{kind: cEntry, state: s.ID, body: s.Entry, owners: []ir.StateID{s.ID}})
			mf.exitOf[s.ID] = len(mf.conts)
			mf.conts = append(mf.conts, &container{kind: cExit, state: s.ID, body: s.Exit, owners: []ir.StateID{s.ID}})
		}
		for ai, a := range m.Actions {
			mf.actOf[ai] = len(mf.conts)
			var owners []ir.StateID
			for _, s := range m.States {
				for _, bound := range s.Action {
					if bound == ir.ActionID(ai) {
						owners = append(owners, s.ID)
						break
					}
				}
			}
			mf.conts = append(mf.conts, &container{kind: cAction, act: ir.ActionID(ai), body: a.Body, owners: owners})
		}
		for fi, fn := range m.Foreigns {
			if fn.Model == nil {
				mf.modelOf[fi] = -1
				continue
			}
			mf.modelOf[fi] = len(mf.conts)
			// Model owners are filled in by modelOwners once call sites are
			// known.
			mf.conts = append(mf.conts, &container{kind: cModel, fn: ir.ForeignID(fi), body: fn.Model})
		}
		f.mf = append(f.mf, mf)
	}
	f.modelOwners()
}

// modelOwners propagates container ownership into foreign-function models:
// a model can run on behalf of every state that owns a container calling it.
func (f *facts) modelOwners() {
	for _, mf := range f.mf {
		for changed := true; changed; {
			changed = false
			for _, c := range mf.conts {
				walkStmts(c.body, func(s *ir.Stmt) {
					for _, fi := range foreignCalls(s) {
						mi := mf.modelOf[fi]
						if mi < 0 {
							continue
						}
						mc := mf.conts[mi]
						for _, o := range c.owners {
							if !containsState(mc.owners, o) {
								mc.owners = append(mc.owners, o)
								changed = true
							}
						}
					}
				})
			}
		}
	}
}

func containsState(list []ir.StateID, s ir.StateID) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// walkStmts applies fn to every statement in body, recursing into if/while
// bodies (but not into foreign models — callers handle those explicitly).
func walkStmts(body []*ir.Stmt, fn func(*ir.Stmt)) {
	ir.WalkStmts(body, fn)
}

// foreignCalls returns the foreign functions invoked directly by s, either
// as a call statement or inside one of its expressions.
func foreignCalls(s *ir.Stmt) []ir.ForeignID {
	var out []ir.ForeignID
	if s.Op == ir.SForeign {
		out = append(out, s.Foreign)
	}
	var walkExpr func(e *ir.Expr)
	walkExpr = func(e *ir.Expr) {
		if e == nil {
			return
		}
		if e.Op == ir.ECall {
			out = append(out, e.ForeignFn)
		}
		walkExpr(e.X)
		walkExpr(e.Y)
		for _, a := range e.Args {
			walkExpr(a)
		}
	}
	walkExpr(s.Target)
	walkExpr(s.Expr)
	for _, a := range s.Args {
		walkExpr(a)
	}
	for _, init := range s.Inits {
		walkExpr(init.Expr)
	}
	return out
}

// machineReachability marks machine types creatable from the main machine
// through the transitive closure of new statements.
func (f *facts) machineReachability() {
	f.mf[f.p.Main].reach = true
	for changed := true; changed; {
		changed = false
		for _, mf := range f.mf {
			if !mf.reach {
				continue
			}
			for _, c := range mf.conts {
				walkStmts(c.body, func(s *ir.Stmt) {
					if s.Op == ir.SNew && !f.mf[s.Machine].reach {
						f.mf[s.Machine].reach = true
						changed = true
					}
				})
			}
		}
	}
}

// stateReachability marks, per reachable machine, the states reachable from
// its initial state through transitions and call statements.
func (f *facts) stateReachability() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		work := []ir.StateID{mf.m.Init}
		mf.stReach[mf.m.Init] = true
		visit := func(t ir.StateID) {
			if !mf.stReach[t] {
				mf.stReach[t] = true
				work = append(work, t)
			}
		}
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			st := mf.m.States[s]
			for _, tr := range st.Trans {
				if tr.Kind != ir.TransNone {
					visit(tr.Target)
				}
			}
			for _, c := range f.stateContainers(mf, s) {
				walkStmts(c.body, func(stm *ir.Stmt) {
					if stm.Op == ir.SCallState {
						visit(stm.State)
					}
				})
			}
		}
	}
}

// stateContainers returns the containers state s can execute: its entry and
// exit blocks, the actions it binds, and any foreign models those call.
func (f *facts) stateContainers(mf *machFacts, s ir.StateID) []*container {
	var out []*container
	for _, c := range mf.conts {
		if containsState(c.owners, s) {
			out = append(out, c)
		}
	}
	return out
}

// reachableOwner reports whether any owner state of c is reachable.
func (mf *machFacts) reachableOwner(c *container) bool {
	for _, s := range c.owners {
		if mf.stReach[s] {
			return true
		}
	}
	return false
}

// --------------------------------------------------------------- points-to

func idLike(t ir.Type) bool { return t == ir.TypeID || t == ir.TypeAny }

// exprPts evaluates the type-level points-to set of expression e in machine
// m. Only id-typed values produce non-empty results.
func (f *facts) exprPts(m ir.MachineTypeID, e *ir.Expr, out *pts) bool {
	if e == nil {
		return false
	}
	switch e.Op {
	case ir.EThis:
		return out.add(m)
	case ir.EVar:
		mv := f.p.Machines[m].Vars[e.Var]
		if !idLike(mv.Type) {
			return false
		}
		return out.merge(f.varPts[m][e.Var])
	case ir.EArg, ir.EMsg:
		// Payload of the event being handled; EMsg is the event value itself
		// but an `any`-typed read may alias the payload, so fold both in.
		return out.merge(f.payloadPts[m])
	case ir.ECall:
		if idLike(f.p.Machines[m].Foreigns[e.ForeignFn].Result) {
			return out.addUnknown()
		}
		return false
	default:
		return false
	}
}

// pointsTo computes the flow-insensitive, type-level points-to sets of every
// id-typed variable and of event payloads, by fixpoint over assignments,
// creation initializers, and sends.
func (f *facts) pointsTo() {
	nm := len(f.p.Machines)
	f.varPts = make([][]*pts, nm)
	f.payloadPts = make([]*pts, nm)
	for mi, m := range f.p.Machines {
		f.varPts[mi] = make([]*pts, len(m.Vars))
		for vi := range m.Vars {
			f.varPts[mi][vi] = newPts(nm)
		}
		f.payloadPts[mi] = newPts(nm)
	}
	for _, iv := range f.p.MainInits {
		// Main initializers are constant expressions; evaluate for form.
		f.exprPts(f.p.Main, iv.Expr, f.varPts[f.p.Main][iv.Var])
	}
	for changed := true; changed; {
		changed = false
		for mi, mf := range f.mf {
			if !mf.reach {
				continue
			}
			m := ir.MachineTypeID(mi)
			for _, c := range mf.conts {
				walkStmts(c.body, func(s *ir.Stmt) {
					switch s.Op {
					case ir.SAssign:
						if idLike(mf.m.Vars[s.Var].Type) && f.exprPts(m, s.Expr, f.varPts[mi][s.Var]) {
							changed = true
						}
					case ir.SNew:
						if s.Var >= 0 && idLike(mf.m.Vars[s.Var].Type) && f.varPts[mi][s.Var].add(s.Machine) {
							changed = true
						}
						for _, init := range s.Inits {
							tv := f.p.Machines[s.Machine].Vars[init.Var]
							if idLike(tv.Type) && f.exprPts(m, init.Expr, f.varPts[s.Machine][init.Var]) {
								changed = true
							}
						}
					case ir.SSend:
						if !idLike(f.p.Events[s.Event].Payload) {
							return
						}
						tgt := newPts(len(f.p.Machines))
						f.exprPts(m, s.Target, tgt)
						for ti := range f.p.Machines {
							if tgt.types[ti] || tgt.unknown {
								if f.exprPts(m, s.Expr, f.payloadPts[ti]) {
									changed = true
								}
							}
						}
					case ir.SRaise:
						if idLike(f.p.Events[s.Event].Payload) && f.exprPts(m, s.Expr, f.payloadPts[mi]) {
							changed = true
						}
					}
				})
			}
		}
	}
}

// collectSites gathers the send sites of reachable code and derives the
// inbox, sends-to, and definite-target tables.
func (f *facts) collectSites() {
	nm := len(f.p.Machines)
	f.inbox = make([]ir.EventSet, nm)
	f.sendsTo = make([][]ir.EventSet, nm)
	f.definiteAt = make([][]*sendSite, nm)
	f.firstAt = make([][]*sendSite, nm)
	for i := range f.sendsTo {
		f.sendsTo[i] = make([]ir.EventSet, nm)
		f.definiteAt[i] = make([]*sendSite, len(f.p.Events))
		f.firstAt[i] = make([]*sendSite, len(f.p.Events))
	}
	for mi, mf := range f.mf {
		if !mf.reach {
			continue
		}
		for _, c := range mf.conts {
			if !mf.reachableOwner(c) {
				continue
			}
			var scan func(body []*ir.Stmt, inLoop bool)
			scan = func(body []*ir.Stmt, inLoop bool) {
				for _, s := range body {
					switch s.Op {
					case ir.SRaise:
						mf.raised.Add(s.Event)
						f.raisedAny.Add(s.Event)
					case ir.SSend:
						tgt := newPts(nm)
						f.exprPts(ir.MachineTypeID(mi), s.Target, tgt)
						site := &sendSite{from: ir.MachineTypeID(mi), cont: c, st: s, tgt: tgt, inLoop: inLoop}
						f.sites = append(f.sites, site)
						f.sentAny.Add(s.Event)
						one, definite := tgt.single()
						for ti := range f.p.Machines {
							if !tgt.types[ti] && !tgt.unknown {
								continue
							}
							f.inbox[ti].Add(s.Event)
							f.sendsTo[mi][ti].Add(s.Event)
							if definite && ir.MachineTypeID(ti) == one && f.definiteAt[ti][s.Event] == nil {
								f.definiteAt[ti][s.Event] = site
							}
							if f.firstAt[ti][s.Event] == nil {
								f.firstAt[ti][s.Event] = site
							}
						}
					}
					scan(s.Body, inLoop || s.Op == ir.SWhile)
					scan(s.Else, inLoop)
				}
			}
			scan(c.body, false)
		}
	}
}

// payloadFlow computes pdVar: id variables whose every value arrived in one
// of the machine's own event payloads (null permitted). The property is a
// greatest fixpoint — start optimistic, falsify on any assignment from a
// non-payload source, any creation stored into the variable, and any
// creation-time initializer (values mailed by the creator are not responses
// to anything the new machine said).
func (f *facts) payloadFlow() {
	f.pdVar = make([][]bool, len(f.p.Machines))
	for mi, m := range f.p.Machines {
		f.pdVar[mi] = make([]bool, len(m.Vars))
		for vi, v := range m.Vars {
			f.pdVar[mi][vi] = idLike(v.Type)
		}
	}
	for _, iv := range f.p.MainInits {
		if idLike(f.p.Machines[f.p.Main].Vars[iv.Var].Type) && iv.Expr != nil && iv.Expr.Op != ir.ENull {
			f.pdVar[f.p.Main][iv.Var] = false
		}
	}
	for changed := true; changed; {
		changed = false
		for mi, mf := range f.mf {
			if !mf.reach {
				continue
			}
			for _, c := range mf.conts {
				if !mf.reachableOwner(c) {
					continue
				}
				walkStmts(c.body, func(s *ir.Stmt) {
					switch s.Op {
					case ir.SAssign:
						if idLike(mf.m.Vars[s.Var].Type) && f.pdVar[mi][s.Var] &&
							!f.exprPayloadDerived(ir.MachineTypeID(mi), s.Expr) {
							f.pdVar[mi][s.Var] = false
							changed = true
						}
					case ir.SNew:
						if s.Var >= 0 && idLike(mf.m.Vars[s.Var].Type) && f.pdVar[mi][s.Var] {
							f.pdVar[mi][s.Var] = false
							changed = true
						}
						for _, init := range s.Inits {
							tv := f.p.Machines[s.Machine].Vars[init.Var]
							if idLike(tv.Type) && f.pdVar[s.Machine][init.Var] &&
								init.Expr != nil && init.Expr.Op != ir.ENull {
								f.pdVar[s.Machine][init.Var] = false
								changed = true
							}
						}
					}
				})
			}
		}
	}
}

// exprPayloadDerived reports whether e can only evaluate to an id that
// arrived in one of m's event payloads, or to null.
func (f *facts) exprPayloadDerived(m ir.MachineTypeID, e *ir.Expr) bool {
	if e == nil {
		return false
	}
	switch e.Op {
	case ir.EArg, ir.EMsg, ir.ENull:
		return true
	case ir.EVar:
		return f.pdVar[m][e.Var]
	}
	return false
}

// raiseCycles computes raiseAdj and raiseCycle for every reachable machine:
// the dequeue-free movement graph (entry raises an event the state steps or
// calls on) and the states trapped on its cycles.
func (f *facts) raiseCycles() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		n := len(mf.m.States)
		mf.raiseAdj = make([][]int, n)
		mf.raiseCycle = make([]bool, n)
		for _, st := range mf.m.States {
			if !mf.stReach[st.ID] {
				continue
			}
			var raisedInEntry ir.EventSet
			walkStmts(st.Entry, func(s *ir.Stmt) {
				if s.Op == ir.SRaise {
					raisedInEntry.Add(s.Event)
				}
			})
			for _, ev := range raisedInEntry.Events() {
				if tr := st.Trans[ev]; tr.Kind != ir.TransNone {
					mf.raiseAdj[st.ID] = append(mf.raiseAdj[st.ID], int(tr.Target))
				}
			}
		}
		for _, scc := range stronglyConnected(n, mf.raiseAdj) {
			if len(scc) == 1 && !containsInt(mf.raiseAdj[scc[0]], scc[0]) {
				continue
			}
			for _, v := range scc {
				mf.raiseCycle[v] = true
			}
		}
	}
}

func containsInt(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------------- frames

// frames computes, per machine, which states can live in a bottom call
// frame and which states can sit below each state's frame.
func (f *facts) frames() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		n := len(mf.m.States)
		mf.bottom = make([]bool, n)
		mf.ancestors = make([][]ir.StateID, n)

		// stepClosure marks every state reachable from root by step
		// transitions alone — the states a single frame can move through.
		stepClosure := func(root ir.StateID) []bool {
			seen := make([]bool, n)
			work := []ir.StateID{root}
			seen[root] = true
			for len(work) > 0 {
				s := work[len(work)-1]
				work = work[:len(work)-1]
				for _, tr := range mf.m.States[s].Trans {
					if tr.Kind == ir.TransStep && !seen[tr.Target] {
						seen[tr.Target] = true
						work = append(work, tr.Target)
					}
				}
			}
			return seen
		}

		for _, s := range stepClosureStates(stepClosure(mf.m.Init)) {
			mf.bottom[s] = true
		}

		// Push roots and their pushers.
		pushersOf := map[ir.StateID][]ir.StateID{}
		for _, st := range mf.m.States {
			for _, tr := range st.Trans {
				if tr.Kind == ir.TransCall {
					pushersOf[tr.Target] = append(pushersOf[tr.Target], st.ID)
				}
			}
		}
		for _, c := range mf.conts {
			walkStmts(c.body, func(stm *ir.Stmt) {
				if stm.Op != ir.SCallState {
					return
				}
				for _, o := range c.owners {
					if !containsState(pushersOf[stm.State], o) {
						pushersOf[stm.State] = append(pushersOf[stm.State], o)
					}
				}
			})
		}
		for root, pushers := range pushersOf {
			for _, s := range stepClosureStates(stepClosure(root)) {
				for _, q := range pushers {
					if !containsState(mf.ancestors[s], q) {
						mf.ancestors[s] = append(mf.ancestors[s], q)
					}
				}
			}
		}
	}
}

func stepClosureStates(seen []bool) []ir.StateID {
	var out []ir.StateID
	for i, b := range seen {
		if b {
			out = append(out, ir.StateID(i))
		}
	}
	return out
}

// ---------------------------------------------------------------- coverage

// coverage computes per-state event coverage: cov is the state's own
// transition/action/defer table; effCov additionally credits events that
// every possible caller chain below the state covers (an uncovered event
// pops the stack until a caller handles it, and a caller's deferral is
// inherited by the pushed frame).
func (f *facts) coverage() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		ne := len(f.p.Events)
		mf.cov = make([][]bool, len(mf.m.States))
		mf.effCov = make([][]bool, len(mf.m.States))
		for _, st := range mf.m.States {
			row := make([]bool, ne)
			for e := 0; e < ne; e++ {
				row[e] = st.Trans[e].Kind != ir.TransNone ||
					st.Action[e] != ir.NoAction ||
					st.Deferred.Contains(ir.EventID(e))
			}
			mf.cov[st.ID] = row
			eff := make([]bool, ne)
			copy(eff, row)
			mf.effCov[st.ID] = eff
		}
		for changed := true; changed; {
			changed = false
			for _, st := range mf.m.States {
				s := st.ID
				if mf.bottom[s] || len(mf.ancestors[s]) == 0 {
					continue
				}
				for e := 0; e < ne; e++ {
					if mf.effCov[s][e] {
						continue
					}
					all := true
					for _, q := range mf.ancestors[s] {
						if !mf.effCov[q][e] {
							all = false
							break
						}
					}
					if all {
						mf.effCov[s][e] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------- triggers

// handlerStates returns the states whose handler tables can resolve a raise
// of e performed while s is the top frame state: s itself if it covers e,
// otherwise every possible caller the pop can land on.
func (mf *machFacts) handlerStates(s ir.StateID, e ir.EventID, seen []bool) []ir.StateID {
	if seen[s] {
		return nil
	}
	seen[s] = true
	st := mf.m.States[s]
	if st.Trans[e].Kind != ir.TransNone || st.Action[e] != ir.NoAction {
		return []ir.StateID{s}
	}
	var out []ir.StateID
	for _, q := range mf.ancestors[s] {
		for _, h := range mf.handlerStates(q, e, seen) {
			if !containsState(out, h) {
				out = append(out, h)
			}
		}
	}
	return out
}

// triggers computes the trigger set of every container by fixpoint: the
// initial state's entry runs at Startup; handler code runs under the token
// of a dequeued inbox event; code reached through a raise inherits the
// raising container's triggers (a raised local event is not a fresh
// stimulus — it carries its cause forward).
func (f *facts) triggers() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		mf.conts[mf.entryOf[mf.m.Init]].trig.startup = true
	}
	for changed := true; changed; {
		changed = false
		for mi, mf := range f.mf {
			if !mf.reach {
				continue
			}
			m := mf.m
			// Dequeued inbox events trigger the handlers bound to them.
			for _, st := range m.States {
				if !mf.stReach[st.ID] {
					continue
				}
				for _, ev := range f.inbox[mi].Events() {
					tok := &tokens{ev: ir.NewEventSet(ev)}
					tr := st.Trans[ev]
					switch tr.Kind {
					case ir.TransStep:
						if mf.conts[mf.entryOf[tr.Target]].trig.merge(tok) {
							changed = true
						}
						if mf.conts[mf.exitOf[st.ID]].trig.merge(tok) {
							changed = true
						}
					case ir.TransCall:
						if mf.conts[mf.entryOf[tr.Target]].trig.merge(tok) {
							changed = true
						}
					}
					if a := st.Action[ev]; a != ir.NoAction {
						if mf.conts[mf.actOf[a]].trig.merge(tok) {
							changed = true
						}
					}
				}
			}
			// Raises, call statements, leaves, and model calls propagate the
			// enclosing container's triggers.
			for _, c := range mf.conts {
				if !mf.reachableOwner(c) {
					continue
				}
				walkStmts(c.body, func(stm *ir.Stmt) {
					switch stm.Op {
					case ir.SRaise:
						for _, o := range c.owners {
							if !mf.stReach[o] {
								continue
							}
							seen := make([]bool, len(m.States))
							for _, h := range mf.handlerStates(o, stm.Event, seen) {
								hs := m.States[h]
								if tr := hs.Trans[stm.Event]; tr.Kind != ir.TransNone {
									if mf.conts[mf.entryOf[tr.Target]].trig.merge(&c.trig) {
										changed = true
									}
									if tr.Kind == ir.TransStep {
										if mf.conts[mf.exitOf[h]].trig.merge(&c.trig) {
											changed = true
										}
									}
								} else if a := hs.Action[stm.Event]; a != ir.NoAction {
									if mf.conts[mf.actOf[a]].trig.merge(&c.trig) {
										changed = true
									}
								}
							}
						}
					case ir.SCallState:
						if mf.conts[mf.entryOf[stm.State]].trig.merge(&c.trig) {
							changed = true
						}
					case ir.SLeave:
						for _, o := range c.owners {
							if mf.conts[mf.exitOf[o]].trig.merge(&c.trig) {
								changed = true
							}
						}
					}
					for _, fi := range foreignCalls(stm) {
						if ci := mf.modelOf[fi]; ci >= 0 {
							if mf.conts[ci].trig.merge(&c.trig) {
								changed = true
							}
						}
					}
				})
			}
		}
	}
}

// ------------------------------------------------------------ multiplicity

// multiplicity marks machine types that can have more than one live
// instance: several creation sites, a creation site inside a loop, a
// self-creating type, or a creator that is itself multi-instance.
func (f *facts) multiplicity() {
	nm := len(f.p.Machines)
	f.multi = make([]bool, nm)
	type creation struct {
		from   ir.MachineTypeID
		inLoop bool
	}
	creations := make([][]creation, nm)
	for mi, mf := range f.mf {
		if !mf.reach {
			continue
		}
		for _, c := range mf.conts {
			if !mf.reachableOwner(c) {
				continue
			}
			var scan func(body []*ir.Stmt, inLoop bool)
			scan = func(body []*ir.Stmt, inLoop bool) {
				for _, s := range body {
					if s.Op == ir.SNew {
						creations[s.Machine] = append(creations[s.Machine], creation{from: ir.MachineTypeID(mi), inLoop: inLoop})
					}
					scan(s.Body, inLoop || s.Op == ir.SWhile)
					scan(s.Else, inLoop)
				}
			}
			scan(c.body, false)
		}
	}
	for ti, cs := range creations {
		if len(cs) > 1 {
			f.multi[ti] = true
		}
		for _, c := range cs {
			if c.inLoop || int(c.from) == ti {
				f.multi[ti] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for ti, cs := range creations {
			if f.multi[ti] {
				continue
			}
			for _, c := range cs {
				if f.multi[c.from] {
					f.multi[ti] = true
					changed = true
					break
				}
			}
		}
	}
}

// -------------------------------------------------------------- classify

// classify splits each machine's inbox into correlated events (only ever
// sent in response to something the receiver itself sent to the sender) and
// spontaneous events, and grades the spontaneous ones by recurrence.
//
// A site is correlated when its trigger set is pure responses to the
// receiver; for multi-instance receivers the site's target must additionally
// be payload-derived, so the response reaches the instance that asked rather
// than an arbitrary sibling. An uncorrelated site is recurring unless its
// only non-response stimulus is the sender's startup and the site cannot
// re-execute (sender is a single instance, the site is not in a loop, and
// its states are off the sender's raise cycles) — then the event arrives at
// most during one bounded startup burst, and only the receiver states
// reachable without consuming any burst event can still be surprised by it.
func (f *facts) classify() {
	nm := len(f.p.Machines)
	f.spont = make([]ir.EventSet, nm)
	f.spontRe = make([]ir.EventSet, nm)
	f.onceAt = make([]map[ir.EventID][]bool, nm)
	reachMemo := map[[2]int][]bool{}
	for mi, mf := range f.mf {
		if !mf.reach {
			continue
		}
		f.onceAt[mi] = map[ir.EventID][]bool{}
		for _, ev := range f.inbox[mi].Events() {
			recurring := false
			var onceFrom []ir.MachineTypeID
			for _, site := range f.sites {
				if site.st.Event != ev {
					continue
				}
				if !site.tgt.types[mi] && !site.tgt.unknown {
					continue
				}
				if f.siteCorrelated(site, mi) {
					continue
				}
				if f.siteOnce(site, mi) {
					onceFrom = append(onceFrom, site.from)
				} else {
					recurring = true
				}
			}
			if !recurring && len(onceFrom) == 0 {
				continue
			}
			f.spont[mi].Add(ev)
			if recurring {
				f.spontRe[mi].Add(ev)
				continue
			}
			allowed := make([]bool, len(mf.m.States))
			for _, from := range onceFrom {
				key := [2]int{mi, int(from)}
				r := reachMemo[key]
				if r == nil {
					r = f.avoidReach(mi, f.burst(from, mi))
					reachMemo[key] = r
				}
				for s, b := range r {
					allowed[s] = allowed[s] || b
				}
			}
			f.onceAt[mi][ev] = allowed
		}
	}
}

// siteCorrelated reports whether the site only sends as a response to the
// receiver's own messages (reaching, for multi-instance receivers, the
// specific instance those messages came from).
func (f *facts) siteCorrelated(site *sendSite, mi int) bool {
	if site.tgt.unknown {
		return false
	}
	if !site.cont.trig.correlatedWith(f.sendsTo[mi][site.from]) {
		return false
	}
	if f.multi[mi] && !f.exprPayloadDerived(site.from, site.st.Target) {
		return false
	}
	return true
}

// siteOnce reports whether an uncorrelated site can fire at most once, as
// part of the sender's startup: its trigger is startup plus responses, the
// sender is a single instance, and nothing lets the site's code re-execute
// without an intervening stimulus from the receiver.
func (f *facts) siteOnce(site *sendSite, mi int) bool {
	if site.tgt.unknown || site.inLoop || f.multi[site.from] {
		return false
	}
	t := &site.cont.trig
	if t.unknown || !t.startup {
		return false
	}
	for _, e := range t.ev.Events() {
		if !f.sendsTo[mi][site.from].Contains(e) {
			return false
		}
	}
	sf := f.mf[site.from]
	for _, o := range site.cont.owners {
		if sf.raiseCycle[o] {
			return false
		}
	}
	return true
}

// burst returns the events that from's startup pass can mail to machine to:
// everything sent by a site whose trigger includes startup.
func (f *facts) burst(from ir.MachineTypeID, to int) ir.EventSet {
	var out ir.EventSet
	for _, site := range f.sites {
		if site.from != from || !site.cont.trig.startup {
			continue
		}
		if !site.tgt.types[to] && !site.tgt.unknown {
			continue
		}
		out.Add(site.st.Event)
	}
	return out
}

// avoidReach returns the states of machine mi reachable from its initial
// state without ever consuming an event in avoid (transitions on avoided
// events stay open only if the machine also raises the event itself).
func (f *facts) avoidReach(mi int, avoid ir.EventSet) []bool {
	mf := f.mf[mi]
	seen := make([]bool, len(mf.m.States))
	work := []ir.StateID{mf.m.Init}
	seen[mf.m.Init] = true
	visit := func(t ir.StateID) {
		if !seen[t] {
			seen[t] = true
			work = append(work, t)
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for e, tr := range mf.m.States[s].Trans {
			if tr.Kind == ir.TransNone {
				continue
			}
			if avoid.Contains(ir.EventID(e)) && !mf.raised.Contains(ir.EventID(e)) {
				continue
			}
			visit(tr.Target)
		}
		for _, c := range f.stateContainers(mf, s) {
			walkStmts(c.body, func(stm *ir.Stmt) {
				if stm.Op == ir.SCallState {
					visit(stm.State)
				}
			})
		}
	}
	return seen
}

// ----------------------------------------------------------------- resting

// resting computes mayRest: whether a state's entry code can complete (or
// leave), putting the machine at a dequeue point in that state. Raises,
// deletes, returns, failing asserts, and divergent loops end the attempt.
func (f *facts) resting() {
	for _, mf := range f.mf {
		if !mf.reach {
			continue
		}
		mf.mayRest = make([]bool, len(mf.m.States))
		for _, st := range mf.m.States {
			mf.mayRest[st.ID] = bodyCompletes(st.Entry)
		}
	}
}

// bodyCompletes reports whether some execution path runs past the end of
// body (or stops at a leave), i.e. the machine can come to rest after it.
func bodyCompletes(body []*ir.Stmt) bool {
	for _, s := range body {
		switch s.Op {
		case ir.SRaise, ir.SDelete, ir.SReturn:
			return false
		case ir.SLeave:
			return true
		case ir.SAssert:
			if isConstFalse(s.Expr) {
				return false
			}
		case ir.SIf:
			if !bodyCompletes(s.Body) && !bodyCompletes(s.Else) {
				return false
			}
		case ir.SWhile:
			if isConstTrue(s.Expr) {
				return false
			}
		}
	}
	return true
}

func isConstFalse(e *ir.Expr) bool {
	return e != nil && (e.Op == ir.EBool || e.Op == ir.EInt) && e.Int == 0
}

func isConstTrue(e *ir.Expr) bool {
	return e != nil && (e.Op == ir.EBool || e.Op == ir.EInt) && e.Int != 0
}

// ----------------------------------------------------------------- pending

// pending computes the per-(machine, state) over-approximation of events
// that can be waiting in the queue on entry to the state: spontaneous
// events can be pending anywhere; responses provoked by a state's own sends
// join the set and flow forward along transitions without ever being
// removed (a gen-only abstraction in the style of event-set analyses).
func (f *facts) pending() {
	f.pend = make([][]ir.EventSet, len(f.p.Machines))
	for mi, mf := range f.mf {
		f.pend[mi] = make([]ir.EventSet, len(mf.m.States))
		if !mf.reach {
			continue
		}
		for _, st := range mf.m.States {
			if mf.stReach[st.ID] {
				f.pend[mi][st.ID] = f.spont[mi].Clone()
			}
		}
		gen := make([]ir.EventSet, len(mf.m.States))
		for _, site := range f.sites {
			if int(site.from) != mi {
				continue
			}
			var responses ir.EventSet
			for ti := range f.p.Machines {
				if site.tgt.types[ti] || site.tgt.unknown {
					responses = responses.Union(f.sendsTo[ti][mi])
				}
			}
			for _, o := range site.cont.owners {
				gen[o] = gen[o].Union(responses)
			}
		}
		for changed := true; changed; {
			changed = false
			for _, st := range mf.m.States {
				if !mf.stReach[st.ID] {
					continue
				}
				out := f.pend[mi][st.ID].Union(gen[st.ID])
				flow := func(t ir.StateID) {
					u := f.pend[mi][t].Union(out)
					if !u.Equal(f.pend[mi][t]) {
						f.pend[mi][t] = u
						changed = true
					}
				}
				for _, tr := range st.Trans {
					if tr.Kind != ir.TransNone {
						flow(tr.Target)
					}
				}
				for _, q := range mf.ancestors[st.ID] {
					flow(q)
				}
			}
		}
	}
}

package analysis

import "pgo/internal/ir"

// PORFacts is the static half of the checker's independence relation: a
// conservative summary of what a machine can still do — send which events
// to which types, create machines — from each of its control states onward.
// The explorers combine it with dynamic per-state information (held machine
// ids, frame stacks, actual macro-step outcomes) to decide when a single
// machine's step commutes with everything the rest of the system can do.
// Over-approximation is always safe here — an extra edge only costs
// reduction, never soundness.
//
// The facts are per control state rather than whole-machine because ghost
// environments front-load their effects: a machine that creates the world
// in its boot state and then settles into a request loop would otherwise
// count as "can create" forever, blocking reduction everywhere. A running
// machine's remaining capabilities are the union of the facts at its frame
// states: a pop lands exactly on a lower frame's state, so unioning over
// the stack covers every return path without static pop edges.
type PORFacts struct {
	// SendEventsFrom[m][s][t] is the set of events machine type m, at
	// control state s or anywhere reachable from it (goto and call edges),
	// may send to an instance of machine type t. Send sites whose target
	// points-to set is unknown splash into every type.
	SendEventsFrom [][][]ir.EventSet
	// CreatesFrom[m][s] reports whether code reachable from state s of
	// machine type m contains a `new` statement (of any type).
	CreatesFrom [][]bool
	// SpawnsFrom[m][s] lists the machine types that code reachable from
	// state s of machine type m can instantiate directly.
	SpawnsFrom [][][]ir.MachineTypeID
	// InitState[m] is m's initial control state — the capabilities of a
	// freshly created instance are the facts at InitState.
	InitState []ir.StateID
}

// PORIndependence computes the static send/create summaries backing
// partial-order reduction. It reuses the analysis pipeline's reachability
// and points-to facts, so dead machines and dead states contribute nothing.
func PORIndependence(p *ir.Program) *PORFacts {
	f := newSiteFacts(p)
	nm := len(p.Machines)
	pf := &PORFacts{
		SendEventsFrom: make([][][]ir.EventSet, nm),
		CreatesFrom:    make([][]bool, nm),
		SpawnsFrom:     make([][][]ir.MachineTypeID, nm),
		InitState:      make([]ir.StateID, nm),
	}
	for mi, mf := range f.mf {
		m := mf.m
		ns := len(m.States)
		pf.InitState[mi] = m.Init
		pf.CreatesFrom[mi] = make([]bool, ns)
		pf.SpawnsFrom[mi] = make([][]ir.MachineTypeID, ns)

		// Direct facts per owner state: what the containers a state can
		// execute do themselves. Unreachable machines keep empty facts —
		// no instance of them can exist. The fixpoint below grows these in
		// place into the reachable-from facts.
		send := make([][]ir.EventSet, ns)
		spawn := make([][]bool, ns)
		for s := range m.States {
			send[s] = make([]ir.EventSet, nm)
			spawn[s] = make([]bool, nm)
		}
		pf.SendEventsFrom[mi] = send
		if mf.reach {
			for _, site := range f.sites {
				if site.from != ir.MachineTypeID(mi) {
					continue
				}
				for _, o := range site.cont.owners {
					for ti := range p.Machines {
						if site.tgt.types[ti] || site.tgt.unknown {
							send[o][ti].Add(site.st.Event)
						}
					}
				}
			}
			for _, c := range mf.conts {
				if !mf.reachableOwner(c) {
					continue
				}
				walkStmts(c.body, func(s *ir.Stmt) {
					if s.Op == ir.SNew {
						for _, o := range c.owners {
							spawn[o][s.Machine] = true
						}
					}
				})
			}
		}

		// Reversed goto and call edges. Pops need no edges: at runtime a pop
		// returns to a lower frame, and the reducer unions facts over every
		// frame state.
		preds := make([][]ir.StateID, ns)
		addEdge := func(from, to ir.StateID) {
			if n := len(preds[to]); n == 0 || preds[to][n-1] != from {
				preds[to] = append(preds[to], from)
			}
		}
		for s := range m.States {
			for _, tr := range m.States[s].Trans {
				if tr.Kind != ir.TransNone {
					addEdge(ir.StateID(s), tr.Target)
				}
			}
		}
		for _, c := range mf.conts {
			walkStmts(c.body, func(stm *ir.Stmt) {
				if stm.Op == ir.SCallState {
					for _, o := range c.owners {
						addEdge(o, stm.State)
					}
				}
			})
		}

		// Least fixpoint of facts[s] = direct[s] ∪ ⋃ facts[succ(s)]: a state
		// whose facts grew is pushed to its predecessors, which are re-queued
		// only if they grew in turn. Every state starts queued; the cost is
		// edges × set width, not states × edges.
		work := make([]ir.StateID, ns)
		queued := make([]bool, ns)
		for s := range work {
			work[s] = ir.StateID(s)
			queued[s] = true
		}
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			queued[s] = false
			for _, pr := range preds[s] {
				grew := false
				for ti := range send[s] {
					if send[pr][ti].UnionWith(send[s][ti]) {
						grew = true
					}
				}
				for ti, ok := range spawn[s] {
					if ok && !spawn[pr][ti] {
						spawn[pr][ti] = true
						grew = true
					}
				}
				if grew && !queued[pr] {
					queued[pr] = true
					work = append(work, pr)
				}
			}
		}
		for s := range m.States {
			for ti, ok := range spawn[s] {
				if ok {
					pf.CreatesFrom[mi][s] = true
					pf.SpawnsFrom[mi][s] = append(pf.SpawnsFrom[mi][s], ir.MachineTypeID(ti))
				}
			}
		}
	}
	return pf
}

package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pgo/internal/compile"
	"pgo/internal/ir"
	"pgo/internal/psamples"
)

// porIndependenceReference is the oracle for PORIndependence: the per-start-
// state reachability sweep the fixpoint replaced, kept as it was — quadratic
// in control states, one allocating Union per (start, reached, type) — and
// run over the full facts pipeline, so it also checks that the stages
// PORIndependence skips revise nothing it reads.
func porIndependenceReference(p *ir.Program) *PORFacts {
	f := newFacts(p)
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
		pf.SendEventsFrom[mi] = make([][]ir.EventSet, ns)
		pf.CreatesFrom[mi] = make([]bool, ns)
		pf.SpawnsFrom[mi] = make([][]ir.MachineTypeID, ns)
		for s := range m.States {
			pf.SendEventsFrom[mi][s] = make([]ir.EventSet, nm)
		}

		// Direct facts per owner state: what the containers a state can
		// execute do themselves. Unreachable machines keep empty facts —
		// no instance of them can exist.
		directSend := make([][]ir.EventSet, ns)
		directNew := make([][]bool, ns)
		for s := range m.States {
			directSend[s] = make([]ir.EventSet, nm)
			directNew[s] = make([]bool, nm)
		}
		if mf.reach {
			for _, site := range f.sites {
				if site.from != ir.MachineTypeID(mi) {
					continue
				}
				for _, o := range site.cont.owners {
					for ti := range p.Machines {
						if site.tgt.types[ti] || site.tgt.unknown {
							directSend[o][ti].Add(site.st.Event)
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
							directNew[o][s.Machine] = true
						}
					}
				})
			}
		}

		callEdges := make([][]ir.StateID, ns)
		for _, c := range mf.conts {
			var tgts []ir.StateID
			walkStmts(c.body, func(stm *ir.Stmt) {
				if stm.Op == ir.SCallState {
					tgts = append(tgts, stm.State)
				}
			})
			if len(tgts) == 0 {
				continue
			}
			for _, o := range c.owners {
				callEdges[o] = append(callEdges[o], tgts...)
			}
		}

		// Per-state forward reachability over goto and call edges. Pops
		// need no edges: at runtime a pop returns to a lower frame, and
		// the reducer unions facts over every frame state.
		for s0 := range m.States {
			r := make([]bool, ns)
			work := []ir.StateID{ir.StateID(s0)}
			r[s0] = true
			visit := func(t ir.StateID) {
				if !r[t] {
					r[t] = true
					work = append(work, t)
				}
			}
			for len(work) > 0 {
				cur := work[len(work)-1]
				work = work[:len(work)-1]
				for _, tr := range m.States[cur].Trans {
					if tr.Kind != ir.TransNone {
						visit(tr.Target)
					}
				}
				for _, t := range callEdges[cur] {
					visit(t)
				}
			}
			spawned := make([]bool, nm)
			for s := range m.States {
				if !r[s] {
					continue
				}
				for ti := range p.Machines {
					pf.SendEventsFrom[mi][s0][ti] = pf.SendEventsFrom[mi][s0][ti].Union(directSend[s][ti])
				}
				for ti, ok := range directNew[s] {
					if ok {
						pf.CreatesFrom[mi][s0] = true
						spawned[ti] = true
					}
				}
			}
			for ti, ok := range spawned {
				if ok {
					pf.SpawnsFrom[mi][s0] = append(pf.SpawnsFrom[mi][s0], ir.MachineTypeID(ti))
				}
			}
		}
	}
	return pf
}

// The three shapes the fixpoint could get wrong where the sweep cannot: facts
// that must travel around a cycle made of call edges only, a state whose sole
// successor is itself, and a state no edge from Init reaches — the sweep
// starts from it all the same, so its outgoing edges must still count.
// Nothing here needs to run; only the control graph matters.
const porCornerCases = `
event Ping;
event Pong;
event Kick;
event Spawn;

machine Env {
  var c: id;
  var l: id;
  var o: id;
  state Boot {
    entry {
      o = new Orphaned(peer = this);
      l = new SelfLoop(peer = this);
      c = new CallCycle(peer = this);
      send c, Kick;
      send l, Kick;
      send o, Kick;
    }
    on Ping goto Boot;
    on Pong goto Boot;
  }
}

machine CallCycle {
  var peer: id;
  state A {
    entry { skip; }
    on Kick goto B;
  }
  state B {
    entry { call C; }
    on Kick goto B;
  }
  state C {
    entry { send peer, Ping; call D; }
  }
  state D {
    entry { send peer, Pong; call C; }
  }
}

machine SelfLoop {
  var peer: id;
  state Spin {
    entry { send peer, Ping; }
    on Kick goto Spin;
  }
}

machine Orphaned {
  var peer: id;
  var w: id;
  action Reply { send peer, Pong; }
  state Live {
    entry { skip; }
    on Kick do Reply;
  }
  state Island {
    entry { send peer, Ping; w = new SelfLoop(peer = this); }
    on Kick do Reply;
  }
  state Shore {
    entry { skip; }
    on Kick goto Island;
    on Spawn push Island;
  }
}

main Env();
`

func TestPORIndependenceMatchesReference(t *testing.T) {
	progs := map[string]string{"corner-cases": porCornerCases}
	for _, s := range psamples.All() {
		progs["sample:"+s.Name] = s.Source
	}
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.p"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s (%v)", dir, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			progs[file] = string(src)
		}
	}
	compared := 0
	for name, src := range progs {
		prog, _, err := compile.Source(name, src)
		if err != nil {
			if name == "corner-cases" {
				t.Fatalf("%s: %v", name, err)
			}
			continue // testdata may hold deliberately ill-formed programs
		}
		compared++
		got, want := PORIndependence(prog), porIndependenceReference(prog)
		for _, fld := range []struct {
			name      string
			got, want any
		}{
			{"SendEventsFrom", got.SendEventsFrom, want.SendEventsFrom},
			{"CreatesFrom", got.CreatesFrom, want.CreatesFrom},
			{"SpawnsFrom", got.SpawnsFrom, want.SpawnsFrom},
			{"InitState", got.InitState, want.InitState},
		} {
			if !reflect.DeepEqual(fld.got, fld.want) {
				t.Errorf("%s: %s differs from the reference sweep\n got %v\nwant %v", name, fld.name, fld.got, fld.want)
			}
		}
	}
	if compared < len(psamples.All())+1 {
		t.Fatalf("only %d programs compiled", compared)
	}
}

// The corner-case program must actually have the shapes it is named for,
// and the facts there must be the non-trivial ones.
func TestPORIndependenceCornerCases(t *testing.T) {
	prog, _, err := compile.Source("corner-cases", porCornerCases)
	if err != nil {
		t.Fatal(err)
	}
	pf := PORIndependence(prog)
	mach := func(name string) (ir.MachineTypeID, *ir.Machine) {
		for i, m := range prog.Machines {
			if m.Name == name {
				return ir.MachineTypeID(i), m
			}
		}
		t.Fatalf("no machine %s", name)
		return 0, nil
	}
	state := func(m *ir.Machine, name string) ir.StateID {
		for _, s := range m.States {
			if s.Name == name {
				return s.ID
			}
		}
		t.Fatalf("no state %s.%s", m.Name, name)
		return 0
	}
	event := func(name string) ir.EventID {
		for i, e := range prog.Events {
			if e.Name == name {
				return ir.EventID(i)
			}
		}
		t.Fatalf("no event %s", name)
		return 0
	}
	env, _ := mach("Env")
	sendsToEnv := func(mi ir.MachineTypeID, s ir.StateID) []ir.EventID {
		return pf.SendEventsFrom[mi][s][env].Events()
	}
	ping, pong := event("Ping"), event("Pong")
	both := []ir.EventID{ping, pong}
	if ping > pong {
		both = []ir.EventID{pong, ping}
	}

	// Call-edge cycle C -> D -> C: both states see both sends, and so does
	// everything upstream of the cycle.
	cc, ccm := mach("CallCycle")
	for _, s := range []string{"A", "B", "C", "D"} {
		if got := sendsToEnv(cc, state(ccm, s)); !reflect.DeepEqual(got, both) {
			t.Errorf("CallCycle.%s sends %v to Env, want %v", s, got, both)
		}
	}

	sl, slm := mach("SelfLoop")
	if got := sendsToEnv(sl, state(slm, "Spin")); !reflect.DeepEqual(got, []ir.EventID{ping}) {
		t.Errorf("SelfLoop.Spin sends %v to Env, want [Ping]", got)
	}

	// Island and Shore are unreachable from Live. Their own blocks are dead
	// code and contribute nothing (Island's Ping and its new), but Reply is
	// live through Live and Island binds it too, so Island has a direct fact —
	// and Shore, with nothing of its own, must inherit it over its edges.
	or, orm := mach("Orphaned")
	f := newSiteFacts(prog)
	for _, s := range []string{"Island", "Shore"} {
		if f.mf[or].stReach[state(orm, s)] {
			t.Fatalf("Orphaned.%s is reachable; the corner case is gone", s)
		}
	}
	for _, s := range []string{"Live", "Island", "Shore"} {
		id := state(orm, s)
		if got := sendsToEnv(or, id); !reflect.DeepEqual(got, []ir.EventID{pong}) {
			t.Errorf("Orphaned.%s sends %v to Env, want [Pong]", s, got)
		}
		if pf.CreatesFrom[or][id] || pf.SpawnsFrom[or][id] != nil {
			t.Errorf("Orphaned.%s creates (dead code), want not", s)
		}
	}

	// Spawn order is ascending machine type, whatever the statement order.
	boot := pf.SpawnsFrom[env][pf.InitState[env]]
	if want := []ir.MachineTypeID{cc, sl, or}; !reflect.DeepEqual(boot, want) {
		t.Errorf("Env.Boot spawns %v, want %v", boot, want)
	}
}

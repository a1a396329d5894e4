package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pgo/internal/core"
	"pgo/internal/ir"
	"pgo/internal/store"
)

// Span names of the reference walker, one per call into core or store.
var walkNames = []string{"walk.expand", "core.enabled", "core.clone", "core.step", "core.hash", "store.claim", "store.claim_dup", "abstract.analyze"}

// Indexes into walkNames.
const (
	nExpand uint8 = iota
	nEnabled
	nClone
	nStep
	nHash
	nClaim
	nDup
)

// walked is what one walk measured besides its spans.
type walked struct {
	transitions int
	wall        time.Duration
	// Allocation cost of RunToSchedPoint alone, from MemStats deltas around
	// a sample of the step calls (every call would stop the world 2n times).
	stepAllocs, stepBytes float64
}

const allocSampleEvery = 64

// walk is the harness's own model of the checker's expand loop, built only
// from the public calls the engine makes — NewGlobal, CreateMain, LiveIDs,
// Enabled, Clone, FixedChoices, RunToSchedPoint, Hash and Store.Claim — with
// a span around each. It expands states in an order drawn from the seed
// until limit transitions have run or the reachable states are exhausted.
// It is a cost model, not a search: it applies no bound, no reduction and
// no scheduler stack, and it keeps no counterexample prefix.
func walk(prog *ir.Program, seed int64, limit int, st *store.Store, tr *tracer) (walked, error) {
	var (
		w       walked
		rng     = rand.New(rand.NewSource(seed))
		before  runtime.MemStats
		after   runtime.MemStats
		sampled int
		cs      core.FixedChoices
	)
	g := core.NewGlobal(prog, nil)
	if _, err := g.CreateMain(); err != nil {
		return w, fmt.Errorf("walker: creating the main machine: %v", err)
	}
	h := g.Hash()
	st.Claim(store.Key{Hi: h.Hi, Lo: h.Lo}, nil)
	frontier := []*core.Global{g}
	start := time.Now()
	for node := int32(0); len(frontier) > 0 && w.transitions < limit; node++ {
		i := rng.Intn(len(frontier))
		g := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		expand := tr.begin(nExpand, noSpan, node)
		for _, id := range g.LiveIDs() {
			s := tr.begin(nEnabled, expand, node)
			enabled := g.Enabled(id)
			tr.end(s)
			if !enabled {
				continue
			}
			cs = core.FixedChoices{}
			for {
				s = tr.begin(nClone, expand, node)
				succ := g.Clone()
				tr.end(s)

				cs.Reset()
				sample := tr != nil && w.transitions%allocSampleEvery == 0
				if sample {
					runtime.ReadMemStats(&before)
				}
				s = tr.begin(nStep, expand, node)
				out := succ.RunToSchedPoint(id, &cs, 0)
				tr.end(s)
				if sample {
					runtime.ReadMemStats(&after)
					w.stepAllocs += float64(after.Mallocs - before.Mallocs)
					w.stepBytes += float64(after.TotalAlloc - before.TotalAlloc)
					sampled++
				}
				w.transitions++

				if out.Kind != core.OutError {
					s = tr.begin(nHash, expand, node)
					h := succ.Hash()
					tr.end(s)

					s = tr.begin(nClaim, expand, node)
					fresh := st.Claim(store.Key{Hi: h.Hi, Lo: h.Lo}, nil)
					if fresh {
						tr.end(s)
						frontier = append(frontier, succ)
					} else {
						tr.endAs(s, nDup)
					}
				}
				if !cs.NextString() {
					break
				}
			}
		}
		tr.end(expand)
	}
	w.wall = time.Since(start)
	if sampled > 0 {
		w.stepAllocs /= float64(sampled)
		w.stepBytes /= float64(sampled)
	}
	return w, nil
}

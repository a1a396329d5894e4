package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"pgo/internal/compile"
	"pgo/internal/core"
	"pgo/internal/ir"
	"pgo/internal/server"
)

var serveNames = []string{"client.request", "server.http", "server.create", "server.send"}

// nClientRequest indexes serveNames: the one span a client records.
const nClientRequest uint8 = 0

func (e *env) erased(program string) (*ir.Program, error) {
	src, err := os.ReadFile(e.dir + "/" + program)
	if err != nil {
		return nil, err
	}
	prog, diags, err := compile.Erased(program, string(src))
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %v\n%s", program, err, diags.String())
	}
	return prog, nil
}

// tracedHandler is the harness's own http.Handler around the server's: the
// inner span of a request.
func tracedHandler(inner http.Handler, tr *tracer) http.Handler {
	name := tr.id("server.http")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := noSpan
		if n, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = int32(n)
		}
		s := tr.begin(name, parent, parent)
		inner.ServeHTTP(w, r)
		tr.end(s)
	})
}

// httpLoop drives the ingress script through an in-process server behind a
// real socket (httptest) and returns the wall time per request.
func (e *env) httpLoop(prog *ir.Program, sz sizes, tr *tracer, all *ops) (perRequest time.Duration, h *server.Handler, srv *server.Server, err error) {
	srv, err = server.New(prog, server.Options{})
	if err != nil {
		return 0, nil, nil, err
	}
	h = server.NewHandler(srv)
	var handler http.Handler = h
	if tr != nil {
		handler = tracedHandler(h, tr)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client := newClient(e.nproc)
	var left atomic.Int64
	left.Store(int64(sz.traceRequests))
	sessions := make([]session, e.nproc)
	t0 := time.Now()
	runSessions(sessions, func(i int, s *session) {
		s.tr = tr
		for n := i * len(e.script) / e.nproc; left.Load() > 0; n++ {
			r := e.script[n%len(e.script)]
			left.Add(-int64(1 + len(r.Sends)))
			s.doRound(client, ts.URL, r)
		}
	})
	wall := time.Since(t0)
	requests := 0
	for _, s := range sessions {
		all.add(s.lat.ops)
		requests += s.lat.attempted
	}
	return wall / time.Duration(requests), h, srv, nil
}

// directCalls times Server.CreateMachine and Server.Send on the elevator with
// the HTTP edge and admission control out of the picture.
func directCalls(prog *ir.Program, n int, m map[string]float64, all *ops) error {
	srv, err := server.New(prog, server.Options{QueueHighWater: -1})
	if err != nil {
		return err
	}
	defer srv.Stop()
	ids := make([]core.MachineID, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id, err := srv.CreateMachine("Elevator", nil)
		all.attempted++
		if err != nil {
			all.failf("Server.CreateMachine: %v", err)
			continue
		}
		ids = append(ids, id)
	}
	createT := time.Since(t0)
	srv.Quiesce(30 * time.Second)
	t0 = time.Now()
	for _, id := range ids {
		all.attempted++
		if err := srv.Send(id, "OpenDoor", core.Null); err != nil {
			all.failf("Server.Send: %v", err)
		}
	}
	sendT := time.Since(t0)
	if !srv.Quiesce(30*time.Second) || len(srv.Errors()) != 0 {
		all.attempted++
		all.failf("direct calls: server did not quiesce cleanly (%d machine errors)", len(srv.Errors()))
	}
	if len(ids) > 0 {
		m["server.create_ns"] = float64(createT.Nanoseconds()) / float64(len(ids))
		m["server.send_ns"] = float64(sendT.Nanoseconds()) / float64(len(ids))
	}
	return nil
}

// hostCounters turns a quiescent in-process server's counters into the
// server.* count metrics.
func hostCounters(h *server.Handler, m map[string]float64) {
	v := h.Varz()
	m["server.events_processed"] = float64(v.Totals.EventsProcessed)
	m["server.bursts"] = float64(v.Totals.Bursts)
	if v.Totals.Bursts > 0 {
		m["server.events_per_burst"] = float64(v.Totals.EventsProcessed) / float64(v.Totals.Bursts)
	}
	m["server.shed"] = float64(v.Totals.EventsShed + v.HTTPShed)
}

// traceIngress: outer span in the client, inner span in the harness's
// handler around server.NewHandler, over a real loopback socket.
func (e *env) traceIngress(ctx context.Context, sz sizes, m map[string]float64, all *ops) (*tracer, error) {
	prog, err := e.erased("elevator.p")
	if err != nil {
		return nil, err
	}
	bare, _, bareSrv, err := e.httpLoop(prog, sz, nil, all)
	if err != nil {
		return nil, err
	}
	bareSrv.Stop()
	tr := newTracer(2*sz.traceRequests+64, serveNames...)
	traced, h, srv, err := e.httpLoop(prog, sz, tr, all)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	quiet := srv.Quiesce(30 * time.Second)
	m["server.quiesce_ms"] = ms(time.Since(t0))
	all.attempted++
	if !quiet || len(srv.Errors()) != 0 {
		all.failf("in-process server did not quiesce cleanly (%d machine errors)", len(srv.Errors()))
	}
	hostCounters(h, m)
	srv.Stop()

	empty := emptySpanNs()
	l := tr.layers()
	m["server.http_ns"] = max(l["server.http"].meanNs()-empty, 0)
	m["server.loopback_us"] = max(l["client.request"].meanSelfNs()-empty, 0) / 1e3
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - bare.Seconds()) / bare.Seconds()

	if err := directCalls(prog, sz.directOps, m, all); err != nil {
		return nil, err
	}
	// One real process: its drain, its memory per hosted machine, and the
	// outer span as a client of pserve sees it. Sharing a process with the
	// server makes the socket path cheaper than it is (one scheduler, no
	// process switch, no TimeoutHandler), so transport is what the real
	// request took beyond the handler time measured above.
	in, st, err := e.ingressLeg(ctx, sz.refIngress, sz.smokeRounds)
	if err != nil {
		return nil, err
	}
	all.add(in.ops)
	m["server.transport_us"] = in.meanMs*1e3 - m["server.http_ns"]/1e3
	processFigures(st, m)
	return tr, nil
}

func processFigures(st stopped, m map[string]float64) {
	m["server.drain_ms"] = ms(st.drain)
	if n := st.final.Totals.Machines; n > 0 {
		m["server.rss_per_machine_bytes"] = st.rssMB * (1 << 20) / float64(n)
	}
}

// fanoutLoop grows rings on an in-process server by direct calls, a span
// around each, and waits for quiescence.
func (e *env) fanoutLoop(prog *ir.Program, sz sizes, tr *tracer, m map[string]float64, all *ops) (time.Duration, error) {
	srv, err := server.New(prog, server.Options{QueueHighWater: 65536})
	if err != nil {
		return 0, err
	}
	defer srv.Stop()
	h := server.NewHandler(srv)
	inits := map[string]core.Value{"myid": core.IntVal(1), "total": core.IntVal(int64(sz.ringSize))}
	var nCreate, nSend uint8
	if tr != nil {
		nCreate, nSend = tr.id("server.create"), tr.id("server.send")
	}
	share := dealRounds(1, sz.fanoutRings, e.nproc)
	sessions := make([]session, e.nproc)
	t0 := time.Now()
	runSessions(sessions, func(i int, sess *session) {
		mine := &sess.lat.ops
		for n := 0; n < share[i]; n++ {
			s := tr.begin(nCreate, noSpan, int32(n))
			id, err := srv.CreateMachine("Node", inits)
			tr.end(s)
			mine.attempted++
			if err != nil {
				mine.failf("Server.CreateMachine: %v", err)
				continue
			}
			s = tr.begin(nSend, noSpan, int32(n))
			err = srv.Send(id, "Token", core.IntVal(0))
			tr.end(s)
			mine.attempted++
			if err != nil {
				mine.failf("Server.Send: %v", err)
			}
		}
	})
	q0 := time.Now()
	quiet := srv.Quiesce(60 * time.Second)
	wall := time.Since(t0)
	for _, sess := range sessions {
		all.add(sess.lat.ops)
	}
	if tr == nil {
		return wall, nil
	}
	m["server.quiesce_ms"] = ms(time.Since(q0))
	hostCounters(h, m)
	all.attempted++
	want := float64(sz.fanoutRings * 2 * sz.ringSize)
	if !quiet || len(srv.Errors()) != 0 || m["server.events_processed"] != want || m["server.shed"] != 0 {
		all.failf("in-process fan-out: quiescent=%v, %d machine errors, %v events processed (want %v), %v shed",
			quiet, len(srv.Errors()), m["server.events_processed"], want, m["server.shed"])
	}
	return wall, nil
}

// traceFanout: the host's own cost per create and per send, its burst
// shape, and what one real pserve needs to drain and to hold a machine.
func (e *env) traceFanout(ctx context.Context, seed int64, sz sizes, m map[string]float64, all *ops) (*tracer, error) {
	prog, err := e.erased("ring.p")
	if err != nil {
		return nil, err
	}
	bare, err := e.fanoutLoop(prog, sz, nil, m, all)
	if err != nil {
		return nil, err
	}
	tr := newTracer(2*sz.fanoutRings+64, serveNames...)
	traced, err := e.fanoutLoop(prog, sz, tr, m, all)
	if err != nil {
		return nil, err
	}
	l := tr.layers()
	m["server.create_ns"] = l["server.create"].meanNs()
	m["server.send_ns"] = l["server.send"].meanNs()
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - bare.Seconds()) / bare.Seconds()

	one := sz
	one.minIters = 1
	fan, st, err := e.fanoutLeg(ctx, seed, one, 0)
	if err != nil {
		return nil, err
	}
	all.add(fan.ops)
	processFigures(st, m)
	return tr, nil
}

package main

import (
	"context"
	"fmt"
	"time"

	"pgo/internal/core"
	prt "pgo/internal/runtime"
)

var hostNames = []string{"host.roundtrip", "runtime.send", "runtime.create"}

// traceHost: what one Runtime.Send and one CreateMachine cost without
// waiting for the handler, the traced round trip against the untraced one,
// and the same loop on the hand-written driver.
func (e *env) traceHost(ctx context.Context, sz sizes, m map[string]float64, all *ops) (*tracer, error) {
	prog, err := e.switchLED()
	if err != nil {
		return nil, err
	}
	tr := newTracer(sz.hostBatch+2*sz.directOps+16, hostNames...)
	nTrip, nSend, nCreate := tr.id("host.roundtrip"), tr.id("runtime.send"), tr.id("runtime.create")

	d, err := startDriver(prog)
	if err != nil {
		return nil, err
	}
	defer d.rt.Stop()
	if _, err := d.roundTrips(sz.hostBatch); err != nil { // warm-up
		return nil, err
	}
	var bareBatches []float64
	for b := 0; b < comparisonBatches; b++ {
		t0 := time.Now()
		if _, err := d.roundTrips(sz.hostBatch); err != nil {
			return nil, err
		}
		bareBatches = append(bareBatches, time.Since(t0).Seconds())
	}
	bare := median(bareBatches)
	t0 := time.Now()
	for i := 0; i < sz.hostBatch; i++ {
		s := tr.begin(nTrip, noSpan, int32(i))
		if _, err := d.roundTrips(1); err != nil {
			return nil, err
		}
		tr.end(s)
	}
	traced := time.Since(t0).Seconds()
	all.attempted += (2 + comparisonBatches) * sz.hostBatch
	m["trace.overhead_pct"] = 100 * (traced - bare) / bare

	// ResumeDevice is ignored in Ready: the send costs what a send costs
	// and the handler does nothing the next send could wait for.
	for i := 0; i < sz.directOps; i++ {
		s := tr.begin(nSend, noSpan, int32(i))
		err := d.rt.Send(d.id, "ResumeDevice", core.Null)
		tr.end(s)
		all.attempted++
		if err != nil {
			all.failf("Runtime.Send: %v", err)
		}
	}
	all.attempted++
	if !d.rt.Quiesce(10*time.Second) || len(d.rt.Errors()) != 0 {
		all.failf("runtime did not quiesce cleanly after the sends: %v", d.rt.Errors())
	}

	// Creation on a runtime of its own, so the timed driver above stays alone.
	quiet := func(ctx any, args []core.Value) (core.Value, error) { return core.Null, nil }
	rt, err := prt.New(prog, prt.Options{Foreign: core.ForeignMap{
		"Driver.ledOn": quiet, "Driver.ledOff": quiet, "Driver.ledReset": quiet,
		"Driver.notifyStarted": quiet, "Driver.notifyStopped": quiet,
	}})
	if err != nil {
		return nil, err
	}
	defer rt.Stop()
	for i := 0; i < sz.directOps/10; i++ {
		s := tr.begin(nCreate, noSpan, int32(i))
		_, err := rt.CreateMachine("Driver", nil, nil)
		tr.end(s)
		all.attempted++
		if err != nil {
			all.failf("Runtime.CreateMachine: %v", err)
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	empty := emptySpanNs()
	l := tr.layers()
	m["runtime.send_ns"] = max(l["runtime.send"].meanNs()-empty, 0)
	m["runtime.create_ns"] = max(l["runtime.create"].meanNs()-empty, 0)
	hand := handwrittenRoundTrips(sz.hostBatch)
	m["runtime.handwritten_roundtrip_us"] = hand
	generated := bare * 1e6 / float64(sz.hostBatch)
	if hand <= 0 {
		return nil, fmt.Errorf("hand-written driver measured %v us per round trip", hand)
	}
	m["runtime.overhead_x"] = generated / hand
	return tr, nil
}

// traceWorkload produces every per-layer metric for one workload and writes
// the spans to path. Layers the workload does not exercise report 0.
func traceWorkload(ctx context.Context, e *env, w workload, seed int64, sz sizes, path string) (*result, error) {
	var (
		all ops
		m   = map[string]float64{}
		tr  *tracer
		err error
	)
	switch w.own {
	case legVerify:
		tr, err = e.traceVerify(ctx, w.verify, seed, sz, m, &all)
	case legIngress:
		tr, err = e.traceIngress(ctx, sz, m, &all)
	case legFanout:
		tr, err = e.traceFanout(ctx, seed, sz, m, &all)
	case legHost:
		tr, err = e.traceHost(ctx, sz, m, &all)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		res.set(perLayer, d.Name, m[d.Name])
	}
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			panic("benchmark: per-layer metric " + name + " is not in the registry")
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d spans in %s (%d dropped)", len(tr.recorded()), path, tr.dropped.Load()))
	res.finish(all)
	return res, nil
}

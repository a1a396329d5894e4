package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pgo/internal/compile"
	"pgo/internal/core"
	"pgo/internal/handwritten"
	"pgo/internal/ir"
	prt "pgo/internal/runtime"
)

// hostedDriver is the erased switch-and-LED driver of the paper's §4.1
// running on internal/runtime, with LED foreign functions that acknowledge
// at once and signal the benchmark loop — the startGeneratedDriver shape of
// the repo's bench_test.go.
type hostedDriver struct {
	rt     *prt.Runtime
	id     core.MachineID
	signal chan struct{}
}

func (e *env) switchLED() (*ir.Program, error) {
	src, err := os.ReadFile(e.dir + "/switchled.p")
	if err != nil {
		return nil, err
	}
	prog, diags, err := compile.Erased("switchled", string(src))
	if err != nil {
		return nil, fmt.Errorf("compiling switchled: %v\n%s", err, diags.String())
	}
	return prog, nil
}

func startDriver(prog *ir.Program) (*hostedDriver, error) {
	d := &hostedDriver{signal: make(chan struct{}, 1)}
	ack := func(event string) core.ForeignFn {
		return func(ctx any, args []core.Value) (core.Value, error) {
			err := d.rt.Send(d.id, event, core.Null)
			d.signal <- struct{}{}
			return core.Null, err
		}
	}
	quiet := func(ctx any, args []core.Value) (core.Value, error) { return core.Null, nil }
	var err error
	d.rt, err = prt.New(prog, prt.Options{Foreign: core.ForeignMap{
		"Driver.ledOn":    ack("LedOnAck"),
		"Driver.ledOff":   ack("LedOffAck"),
		"Driver.ledReset": quiet,
		"Driver.notifyStarted": func(ctx any, args []core.Value) (core.Value, error) {
			d.signal <- struct{}{}
			return core.Null, nil
		},
		"Driver.notifyStopped": quiet,
	}})
	if err != nil {
		return nil, err
	}
	if d.id, err = d.rt.CreateMachine("Driver", nil, nil); err == nil {
		err = d.rt.Send(d.id, "StartDevice", core.Null)
	}
	if err != nil {
		d.rt.Stop()
		return nil, err
	}
	<-d.signal // notifyStarted
	return d, nil
}

// roundTrips sends n switch events, each waiting for the LED command its
// handler issues, and returns how many completed.
func (d *hostedDriver) roundTrips(n int) (int, error) {
	for i := 0; i < n; i++ {
		ev := "SwitchOn"
		if i%2 == 1 {
			ev = "SwitchOff"
		}
		if err := d.rt.Send(d.id, ev, core.Null); err != nil {
			return i, err
		}
		<-d.signal
	}
	return n, nil
}

// hostResult is a host leg's contribution to the run.
type hostResult struct {
	ops
	roundtripUs summary
}

// hostLeg times batches of round trips until budget is spent (or exactly
// batches batches when that is positive); event_roundtrip_us is the median
// batch's time per round trip.
func (e *env) hostLeg(ctx context.Context, sz sizes, budget time.Duration, batches int) (hostResult, error) {
	var res hostResult
	prog, err := e.switchLED()
	if err != nil {
		return res, err
	}
	d, err := startDriver(prog)
	if err != nil {
		return res, err
	}
	defer d.rt.Stop()
	if _, err := d.roundTrips(sz.hostBatch); err != nil { // warm-up, discarded
		return res, err
	}
	var perTrip []float64
	done := 0
	for start := time.Now(); ctx.Err() == nil; {
		if batches > 0 && len(perTrip) >= batches || batches == 0 && time.Since(start) >= budget {
			break
		}
		t0 := time.Now()
		n, err := d.roundTrips(sz.hostBatch)
		el := time.Since(t0)
		res.attempted += sz.hostBatch
		done += n
		if err != nil {
			res.failed += sz.hostBatch - n
			res.failf("round trip: %v", err)
			break
		}
		perTrip = append(perTrip, el.Seconds()*1e6/float64(n))
	}
	res.roundtripUs = summarize(perTrip)

	// Known answer: the driver is back in Ready, every switch event and its
	// acknowledgement was processed exactly once, and no machine failed.
	res.attempted++
	if !d.rt.Quiesce(10 * time.Second) {
		res.failf("runtime did not quiesce")
	} else if errs := d.rt.Errors(); len(errs) != 0 {
		res.failf("machine errors: %v", errs)
	} else if st, _ := d.rt.StateName(d.id); st != "Ready" {
		res.failf("driver ended in state %q, want Ready", st)
	} else if m, want := d.rt.Metrics(), int64(1+2*(sz.hostBatch+done)); m.EventsProcessed != want || m.EventsDeduped != 0 || m.Panics != 0 {
		res.failf("runtime processed %d events (%d deduplicated, %d panics), want %d, 0, 0", m.EventsProcessed, m.EventsDeduped, m.Panics, want)
	}
	return res, nil
}

// handwrittenRoundTrips is the same loop on the §4.1 baseline, the driver
// written directly in Go; it returns the median batch's microseconds per
// round trip.
func handwrittenRoundTrips(n int) float64 {
	signal := make(chan struct{}, 1)
	var d *handwritten.Driver
	d = handwritten.New(handwritten.Callbacks{
		LedOn:         func() { d.Send(handwritten.LedOnAck); signal <- struct{}{} },
		LedOff:        func() { d.Send(handwritten.LedOffAck); signal <- struct{}{} },
		NotifyStarted: func() { signal <- struct{}{} },
	})
	defer d.Close()
	d.Send(handwritten.StartDevice)
	<-signal
	loop := func() {
		for i := 0; i < n; i++ {
			ev := handwritten.SwitchOn
			if i%2 == 1 {
				ev = handwritten.SwitchOff
			}
			d.Send(ev)
			<-signal
		}
	}
	loop() // warm-up
	var perTrip []float64
	for b := 0; b < comparisonBatches; b++ {
		t0 := time.Now()
		loop()
		perTrip = append(perTrip, time.Since(t0).Seconds()*1e6/float64(n))
	}
	return median(perTrip)
}

// comparisonBatches is how many batches each side of the generated versus
// hand-written comparison takes its median over.
const comparisonBatches = 5

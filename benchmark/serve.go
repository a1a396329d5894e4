package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// varz is the part of pserve's /varz (and of its final flush on stdout) the
// harness checks.
type varz struct {
	HTTPRequests int64 `json:"http_requests"`
	HTTPShed     int64 `json:"http_shed"`
	Errors       int   `json:"machine_errors"`
	Totals       struct {
		Machines        int64 `json:"machines"`
		QueueDepth      int64 `json:"queue_depth"`
		EventsDeduped   int64 `json:"events_deduped"`
		EventsProcessed int64 `json:"events_processed"`
		EventsShed      int64 `json:"events_shed"`
		Bursts          int64 `json:"bursts"`
		Panics          int64 `json:"panics"`
	} `json:"totals"`
}

// pserve is one running server under test.
type pserve struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>, parsed from the serving line
	stdout bytes.Buffer
	logged chan string // everything it wrote to stderr, once it has exited
}

var servingLine = regexp.MustCompile(`serving .* on (http://[0-9.:]+) `)

// startPserve starts pserve on a free port and waits for the line on its
// stderr that says which one it got.
func (e *env) startPserve(ctx context.Context, args ...string) (*pserve, error) {
	p := &pserve{logged: make(chan string, 1)}
	p.cmd = exec.CommandContext(ctx, e.pserve, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stdout = &p.stdout
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if m := servingLine.FindStringSubmatch(line); m != nil {
				addr <- m[1]
			}
		}
		close(addr)
		p.logged <- log.String()
	}()
	select {
	case base, ok := <-addr:
		if !ok {
			err := p.cmd.Wait()
			return nil, fmt.Errorf("pserve exited before serving (%v): %s", err, <-p.logged)
		}
		p.base = base
		return p, nil
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, errors.New("pserve did not report its address within 20s")
	}
}

func (p *pserve) kill() {
	_ = p.cmd.Process.Kill() // already gone is fine
	<-p.logged
	_ = p.cmd.Wait()
}

// stopped is what a drained pserve leaves behind.
type stopped struct {
	drain time.Duration // SIGTERM to exit
	rssMB float64
	final varz
}

// stop sends SIGTERM and checks the contract of a graceful stop: "drained"
// on stderr, exit code 0, and a final /varz flush on stdout.
func (p *pserve) stop() (stopped, error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return stopped{}, fmt.Errorf("signalling pserve: %w", err)
	}
	log := <-p.logged // stderr closes when the process exits
	err := p.cmd.Wait()
	s := stopped{drain: time.Since(t0)}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return s, fmt.Errorf("pserve after SIGTERM: %v: %s", err, log)
	}
	if !strings.Contains(log, "pserve: drained") {
		return s, fmt.Errorf("pserve exited 0 without reporting drained: %s", log)
	}
	if strings.Contains(log, "machine error") {
		return s, fmt.Errorf("pserve logged a machine error: %s", log)
	}
	if err := json.Unmarshal(p.stdout.Bytes(), &s.final); err != nil {
		return s, fmt.Errorf("pserve's final varz flush is unreadable: %v", err)
	}
	return s, nil
}

// newClient returns a client holding at most conns keep-alive connections:
// one per session, so a session's requests never queue behind another's.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// spanHeader carries the client's span index to a traced handler, so the
// inner span can name the outer one as its parent.
const spanHeader = "X-Benchmark-Span"

// post sends one JSON body and returns the status, the response body and
// the latency from send to the last byte read. With a tracer the request is
// also the outer span of the trace.
func post(c *http.Client, tr *tracer, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	s := tr.begin(nClientRequest, noSpan, noSpan)
	if s >= 0 {
		tr.spans[s].req = s
		req.Header.Set(spanHeader, strconv.Itoa(int(s)))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		tr.end(s)
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(s)
	return resp.StatusCode, data, time.Since(t0), err
}

// checkStatus is the known answer of one request: 201 for a create, 202 for
// a send. Anything else — a 429 from admission control above all — fails it.
func checkStatus(got, want int, err error) error {
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("HTTP %d, want %d", got, want)
	}
	return nil
}

func getVarz(c *http.Client, base string) (varz, error) {
	var v varz
	resp, err := c.Get(base + "/varz")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/varz: HTTP %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// session is one closed-loop client: it sends its next request only when
// the previous response has been read, because it cannot address a machine
// before the create has returned its id.
type session struct {
	tr    *tracer // nil except in the traced in-process run
	lat   timing  // request latencies, ms
	sends int64   // accepted sends: the events the server must process
}

// doRound creates a machine and sends it the round's events.
func (s *session) doRound(c *http.Client, base string, r round) {
	code, body, lat, err := post(c, s.tr, base+"/machines", r.Create)
	var created struct {
		ID int64 `json:"id"`
	}
	err = checkStatus(code, http.StatusCreated, err)
	if err == nil {
		if jerr := json.Unmarshal(body, &created); jerr != nil || created.ID <= 0 {
			err = fmt.Errorf("create response %q has no id", body)
		}
	}
	s.lat.record(lat.Seconds()*1e3, err)
	if err != nil {
		return
	}
	url := fmt.Sprintf("%s/machines/%d/send", base, created.ID)
	for _, ev := range r.Sends {
		code, _, lat, err := post(c, s.tr, url, ev)
		err = checkStatus(code, http.StatusAccepted, err)
		s.lat.record(lat.Seconds()*1e3, err)
		if err == nil {
			s.sends++
		}
	}
}

// awaitEvents polls /varz until the server has processed want events and
// its queues are empty, and returns that snapshot. The count is known from
// the script, so the wait ends on the poll that first sees it.
func awaitEvents(ctx context.Context, ctl *http.Client, base string, want int64) (varz, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := getVarz(ctl, base)
		if err != nil {
			return v, err
		}
		if v.Totals.EventsProcessed >= want && v.Totals.QueueDepth == 0 {
			return v, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return v, fmt.Errorf("server processed %d of %d events (queue depth %d) and stopped making progress", v.Totals.EventsProcessed, want, v.Totals.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkVarz holds a quiescent server to the script: every event processed
// exactly once, nothing shed, deduplicated or panicked.
func checkVarz(v varz, wantEvents, wantRequests int64) error {
	t := v.Totals
	switch {
	case t.EventsProcessed != wantEvents:
		return fmt.Errorf("events_processed %d, want %d", t.EventsProcessed, wantEvents)
	case v.HTTPRequests != wantRequests:
		return fmt.Errorf("http_requests %d, want %d", v.HTTPRequests, wantRequests)
	case t.Panics != 0 || t.EventsShed != 0 || v.HTTPShed != 0 || t.EventsDeduped != 0 || v.Errors != 0:
		return fmt.Errorf("panics %d, events_shed %d, http_shed %d, events_deduped %d, machine_errors %d; want all 0",
			t.Panics, t.EventsShed, v.HTTPShed, t.EventsDeduped, v.Errors)
	}
	return nil
}

// serveResult is a serve leg's contribution to the run.
type serveResult struct {
	ops
	requestsPerS, eventsPerS float64
	p50ms, p99ms, meanMs     float64 // request latency
	latencyN                 int
	rssMB                    float64
}

// ingressLeg runs the elevator script against one pserve for budget (or for
// exactly rounds rounds per session when rounds > 0): nproc sessions, each
// repeating create + door cycle on its own connection.
func (e *env) ingressLeg(ctx context.Context, budget time.Duration, rounds int) (serveResult, stopped, error) {
	var res serveResult
	p, err := e.startPserve(ctx, e.dir+"/elevator.p")
	if err != nil {
		return res, stopped{}, err
	}
	client, ctl := newClient(e.nproc), newClient(1)
	// Untimed warm-up: opens the connections and runs every code path once.
	warm := make([]session, e.nproc)
	runSessions(warm, func(i int, s *session) { s.doRound(client, p.base, e.script[i%len(e.script)]) })

	sessions := make([]session, e.nproc)
	t0 := time.Now()
	deadline := t0.Add(budget)
	runSessions(sessions, func(i int, s *session) {
		at := i * len(e.script) / len(sessions)
		for n := 0; ctx.Err() == nil; n++ {
			if rounds > 0 && n >= rounds || rounds == 0 && !time.Now().Before(deadline) {
				return
			}
			s.doRound(client, p.base, e.script[(at+n)%len(e.script)])
		}
	})
	sent := time.Since(t0)

	var lat []float64
	wantEvents, wantRequests, timedEvents := int64(0), int64(0), int64(0)
	for _, s := range warm {
		wantEvents += s.sends
		wantRequests += int64(s.lat.attempted)
	}
	for _, s := range sessions {
		timedEvents += s.sends
		wantRequests += int64(s.lat.attempted)
		res.ops.add(s.lat.ops)
		lat = append(lat, s.lat.values...)
	}
	wantEvents += timedEvents
	v, err := awaitEvents(ctx, ctl, p.base, wantEvents)
	quiescent := time.Since(t0)
	res.attempted++ // the quiescence check is itself an operation that can fail
	if err == nil {
		err = checkVarz(v, wantEvents, wantRequests)
	}
	st, serr := p.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		res.failf("ingress: %v", err)
	}
	sort.Float64s(lat)
	res.latencyN = len(lat)
	res.requestsPerS = float64(len(lat)) / sent.Seconds()
	res.p50ms, res.p99ms, res.meanMs = percentile(lat, 50), percentile(lat, 99), mean(lat)
	res.eventsPerS = float64(timedEvents) / quiescent.Seconds()
	res.rssMB = st.rssMB
	return res, st, nil
}

func runSessions(sessions []session, body func(i int, s *session)) {
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i, &sessions[i])
		}()
	}
	wg.Wait()
}

// fanoutRound is the one round of the fan-out script: a create that grows a
// whole ring server-side and runs the election on it, and one losing token.
func fanoutRound(ringSize int) round {
	return round{
		Create: json.RawMessage(fmt.Sprintf(`{"type":"Node","inits":{"myid":1,"total":%d}}`, ringSize)),
		Sends:  []json.RawMessage{json.RawMessage(`{"event":"Token","payload":0}`)},
	}
}

// dealRounds splits total rounds over n sessions unevenly, by the seed: the
// server sees the same requests in a different interleaving.
func dealRounds(seed int64, total, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	share := make([]int, n)
	for i := 0; i < total; i++ {
		share[i%n]++
	}
	for i := 0; i+1 < n; i++ { // move up to a fifth of a share to the neighbour
		if k := share[i] / 5; k > 0 {
			moved := rng.Intn(k + 1)
			share[i] -= moved
			share[i+1] += moved
		}
	}
	return share
}

// fanoutLeg times fresh servers, one per iteration, from the first request
// of rings rounds until the last internal event has been processed.
func (e *env) fanoutLeg(ctx context.Context, seed int64, sz sizes, budget time.Duration) (serveResult, stopped, error) {
	var (
		res   serveResult
		rates timing
		rss   []float64
		last  stopped
		start = time.Now()
		r     = fanoutRound(sz.ringSize)
		// A ring of n nodes processes n-1 own tokens that die at the next
		// node, n hops of the winning token, and the script's losing token.
		wantEvents   = int64(sz.fanoutRings) * int64(2*sz.ringSize)
		wantRequests = int64(sz.fanoutRings) * 2
	)
	for i := 0; ; i++ {
		iterStart := time.Now()
		p, err := e.startPserve(ctx, "-high-water", "65536", e.dir+"/ring.p")
		if err != nil {
			return res, last, err
		}
		client, ctl := newClient(e.nproc), newClient(1)
		sessions := make([]session, e.nproc)
		share := dealRounds(seed+int64(i), sz.fanoutRings, e.nproc)
		t0 := time.Now()
		runSessions(sessions, func(i int, s *session) {
			for n := 0; n < share[i] && ctx.Err() == nil; n++ {
				s.doRound(client, p.base, r)
			}
		})
		failedBefore := res.failed
		for _, s := range sessions {
			res.ops.add(s.lat.ops)
		}
		v, err := awaitEvents(ctx, ctl, p.base, wantEvents)
		elapsed := time.Since(t0)
		if err == nil {
			err = checkVarz(v, wantEvents, wantRequests)
		}
		if err == nil && v.Totals.Machines != int64(sz.fanoutRings*sz.ringSize) {
			err = fmt.Errorf("%d machines, want %d", v.Totals.Machines, sz.fanoutRings*sz.ringSize)
		}
		st, serr := p.stop()
		if err == nil {
			err = serr
		}
		if err == nil && res.failed != failedBefore {
			err = errors.New("a request of this iteration failed")
		}
		rates.record(float64(wantEvents)/elapsed.Seconds(), err)
		rss = append(rss, st.rssMB)
		last = st
		if i+1 >= sz.minIters && time.Since(start)+time.Since(iterStart) > budget {
			break
		}
	}
	res.ops.add(rates.ops)
	res.eventsPerS = median(rates.values)
	res.rssMB = median(rss)
	return res, last, nil
}

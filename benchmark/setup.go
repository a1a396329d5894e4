package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pgo/internal/psamples"
)

// env is what set-up leaves behind for the legs: the two binaries under
// test and the generated inputs, all inside one run directory.
type env struct {
	dir     string // run directory; removed when the harness exits
	pverify string
	pserve  string
	script  []round // the ingress request script drawn from the seed
	nproc   int
}

// round is one session round of the ingress script: a create followed by
// the events sent to the created machine.
type round struct {
	Create json.RawMessage   `json:"create"`
	Sends  []json.RawMessage `json:"sends"`
}

// moduleRoot walks up from the working directory to the go.mod of module
// pgo, which is where the binaries under test are built from.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module pgo\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside module pgo (no go.mod found above the working directory)")
		}
		dir = parent
	}
}

// inputs are the P programs the processes under test are pointed at. They
// are deterministic by construction: their state counts are the correctness
// check, so the seed must not reach them.
func inputs() map[string]string {
	sample := func(name string) string {
		s, ok := psamples.ByName(name)
		if !ok {
			panic("benchmark: no sample " + name)
		}
		return s.Source
	}
	return map[string]string{
		"german2.p":   psamples.German(2),
		"german4.p":   psamples.German(4),
		"usb-dsm.p":   sample("usb-dsm"),
		"twophase3.p": psamples.TwoPhase(3),
		"pingpong.p":  psamples.PingPong,
		"elevator.p":  psamples.Elevator,
		"ring.p":      psamples.Ring(3),
		"switchled.p": psamples.SwitchLED,
	}
}

// Two legal elevator rounds. CloseDoor is ignored by a fresh elevator, so
// the longer round costs one more request and one more event and leaves
// the machine in the same state.
var (
	elevatorCreate = json.RawMessage(`{"type":"Elevator"}`)
	doorCycle      = []json.RawMessage{
		json.RawMessage(`{"event":"OpenDoor"}`),
		json.RawMessage(`{"event":"DoorOpened"}`),
		json.RawMessage(`{"event":"TimerFired"}`),
	}
	closeFirst = json.RawMessage(`{"event":"CloseDoor"}`)
)

const scriptRounds = 256

// ingressScript draws the order in which the two rounds alternate; every
// session starts at its own offset into it.
func ingressScript(seed int64) []round {
	rng := rand.New(rand.NewSource(seed))
	script := make([]round, scriptRounds)
	for i := range script {
		script[i] = round{Create: elevatorCreate, Sends: doorCycle}
		if rng.Intn(4) == 0 {
			script[i].Sends = append([]json.RawMessage{closeFirst}, doorCycle...)
		}
	}
	return script
}

// setUp builds pverify and pserve into a fresh directory under tmp and
// generates every input there. It is the whole of setup_s.
func setUp(ctx context.Context, root, tmp string, seed int64) (e *env, err error) {
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	build := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/pverify", "./cmd/pserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building pverify and pserve: %v\n%s", err, out)
	}
	for name, src := range inputs() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	script := ingressScript(seed)
	data, err := json.Marshal(script)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "ingress-script.json"), data, 0o644); err != nil {
		return nil, err
	}
	return &env{
		dir: dir, pverify: filepath.Join(dir, "pverify"), pserve: filepath.Join(dir, "pserve"),
		script: script, nproc: runtime.NumCPU(),
	}, nil
}

// timedSetUp sets up n times and keeps the last environment; setup_s is the
// median, because a single link step is the noisiest thing this harness does.
func timedSetUp(ctx context.Context, root, tmp string, seed int64, n int) (*env, summary, error) {
	var (
		last  *env
		times []float64
	)
	for i := 0; i < n; i++ {
		if last != nil {
			os.RemoveAll(last.dir)
		}
		t0 := time.Now()
		e, err := setUp(ctx, root, tmp, seed)
		if err != nil {
			return nil, summary{}, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = e
	}
	return last, summarize(times), nil
}

// availableMB reads MemAvailable from /proc/meminfo; ok is false where that
// file does not exist or does not say.
func availableMB() (mb int, ok bool) {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, err := strconv.Atoi(fields[1])
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

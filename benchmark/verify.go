package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// pverifyReport is the part of `pverify -json` the checker reads, for both
// the explicit-state and the -abstract schema.
type pverifyReport struct {
	Stats struct {
		DistinctStates int  `json:"distinct_states"`
		Transitions    int  `json:"transitions"`
		Truncated      bool `json:"truncated"`
	} `json:"stats"`
	Abstract *struct {
		Verdict   string `json:"verdict"`
		Markings  int    `json:"markings"`
		Truncated bool   `json:"truncated"`
	} `json:"abstract"`
	Checkpointed bool              `json:"checkpointed"`
	Violations   []json.RawMessage `json:"violations"`
	Liveness     []string          `json:"liveness"`
	OK           bool              `json:"ok"`
}

// process is what one finished child left behind.
type process struct {
	wall   time.Duration
	exit   int
	stdout []byte
	rssMB  float64 // max resident set, from wait4's rusage
	cpuS   float64 // user + system
}

// run executes one child to completion and returns its exit code as data; err
// is set only when the child could not be run at all.
func run(ctx context.Context, bin string, args ...string) (process, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	p := process{wall: time.Since(t0), stdout: stdout.Bytes()}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return p, fmt.Errorf("%s: %w", bin, err)
	}
	if ctx.Err() != nil {
		return p, ctx.Err()
	}
	p.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		p.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return p, nil
}

// checkSuspended is the known answer of the first process of a resume pair:
// exit code 3 and a report that says it checkpointed, with nothing found.
func checkSuspended(p process) error {
	if p.exit != 3 {
		return fmt.Errorf("exit code %d, want 3 (suspended at a checkpoint)", p.exit)
	}
	var rep pverifyReport
	if err := json.Unmarshal(p.stdout, &rep); err != nil {
		return fmt.Errorf("unreadable report: %v", err)
	}
	if !rep.Checkpointed || len(rep.Violations) != 0 {
		return fmt.Errorf("checkpointed=%v with %d violations, want a clean suspend", rep.Checkpointed, len(rep.Violations))
	}
	return nil
}

// checkVerdict compares one finished search with its known answer and
// returns the counts that must repeat exactly from iteration to iteration.
// Parallel runs are not held to the transition count.
func checkVerdict(want verdictWant, p process, parallel bool) (counts [3]int, err error) {
	wantExit := 0
	if want.verdict != safe {
		wantExit = 1
	}
	if p.exit != wantExit {
		return counts, fmt.Errorf("exit code %d, want %d", p.exit, wantExit)
	}
	var rep pverifyReport
	if err := json.Unmarshal(p.stdout, &rep); err != nil {
		return counts, fmt.Errorf("unreadable report: %v", err)
	}
	got := "unsafe"
	switch {
	case rep.Abstract != nil:
		got = rep.Abstract.Verdict
		if rep.Abstract.Truncated {
			got = "truncated"
		}
	case rep.Checkpointed:
		got = "suspended"
	case rep.Stats.Truncated:
		got = "truncated"
	case rep.OK && len(rep.Violations) == 0 && len(rep.Liveness) == 0:
		got = safe
	}
	if got != want.verdict {
		return counts, fmt.Errorf("verdict %q, want %q", got, want.verdict)
	}
	if rep.Abstract != nil {
		if want.markings != 0 && rep.Abstract.Markings != want.markings {
			return counts, fmt.Errorf("%d markings, want %d", rep.Abstract.Markings, want.markings)
		}
		return [3]int{2: rep.Abstract.Markings}, nil
	}
	if want.states != 0 && rep.Stats.DistinctStates != want.states {
		return counts, fmt.Errorf("%d distinct states, want %d", rep.Stats.DistinctStates, want.states)
	}
	if parallel {
		return [3]int{rep.Stats.DistinctStates}, nil
	}
	if want.transitions != 0 && rep.Stats.Transitions != want.transitions {
		return counts, fmt.Errorf("%d transitions, want %d", rep.Stats.Transitions, want.transitions)
	}
	return [3]int{rep.Stats.DistinctStates, rep.Stats.Transitions}, nil
}

// verifyResult is a verify leg's contribution to the run.
type verifyResult struct {
	ops
	serial, par timing    // wall seconds, exec to exit, of searches that gave the known answer
	rssMB       []float64 // max RSS of each such serial search
}

// search runs spec once with the given worker count: one process, or the
// suspend/resume pair. It returns the summed wall time and the process that
// carries the verdict; failed says why the search is already known to be
// wrong (a first process that did not suspend), err that it could not run.
func (e *env) search(ctx context.Context, spec *verifySpec, smoke bool, workers int) (wall time.Duration, last process, failed, err error) {
	flags, resume, program := spec.flags, spec.resume, spec.program
	if smoke {
		flags, resume, program = spec.smokeFlags, spec.smokeResume, "pingpong.p"
	}
	args := append([]string{"-json", "-workers", strconv.Itoa(workers)}, flags...)
	if resume == nil {
		p, err := run(ctx, e.pverify, append(args, e.dir+"/"+program)...)
		return p.wall, p, nil, err
	}
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return 0, process{}, nil, err
	}
	defer os.RemoveAll(dir)
	first, err := run(ctx, e.pverify, append(args, "-store-dir", dir, e.dir+"/"+program)...)
	if err != nil {
		return 0, first, nil, err
	}
	if failed := checkSuspended(first); failed != nil {
		return first.wall, first, failed, nil
	}
	second, err := run(ctx, e.pverify, append([]string{"-json", "-workers", strconv.Itoa(workers), "-resume", dir}, resume...)...)
	second.rssMB = max(first.rssMB, second.rssMB)
	second.cpuS += first.cpuS
	return first.wall + second.wall, second, nil, err
}

// verifyLeg repeats spec until budget is spent, and at least minIters times.
// An iteration is a serial search, a parallel one, or one after the other.
func (e *env) verifyLeg(ctx context.Context, spec *verifySpec, sz sizes, budget time.Duration, minIters int, serial, parallel bool) (verifyResult, error) {
	var (
		res   verifyResult
		seen  = map[bool][3]int{}
		start = time.Now()
		want  = spec.want
	)
	if sz.smoke {
		want = verdictWant{verdict: want.verdict}
	}
	one := func(workers int, into *timing) (time.Duration, error) {
		parallel := workers > 1
		wall, p, verr, err := e.search(ctx, spec, sz.smoke, workers)
		if err != nil {
			return 0, err
		}
		var c [3]int
		if verr == nil {
			c, verr = checkVerdict(want, p, parallel)
		}
		if verr == nil {
			if prev, ok := seen[parallel]; ok && prev != c {
				verr = fmt.Errorf("counts %v differ from an earlier iteration's %v", c, prev)
			}
			seen[parallel] = c
		}
		into.record(wall.Seconds(), verr)
		if verr == nil && !parallel {
			res.rssMB = append(res.rssMB, p.rssMB)
		}
		return wall, nil
	}
	// One discarded warm-up exec, on the smallest program: the first run of a
	// freshly linked binary pays for paging it in, the later ones do not.
	if _, err := run(ctx, e.pverify, e.dir+"/pingpong.p"); err != nil {
		return res, err
	}
	parWorkers := max(e.nproc, 2) // on one CPU -workers 2 still takes the parallel driver
	for i := 0; ; i++ {
		var wall time.Duration
		if serial {
			w, err := one(1, &res.serial)
			if err != nil {
				return res, err
			}
			wall += w
		}
		if parallel {
			w, err := one(parWorkers, &res.par)
			if err != nil {
				return res, err
			}
			wall += w
		}
		if i+1 >= minIters && time.Since(start)+wall > budget {
			break
		}
	}
	if s, p := seen[false], seen[true]; serial && parallel && s[0] != p[0] {
		res.par.failf("parallel search found %d distinct states, serial %d", p[0], s[0])
	}
	res.ops.add(res.serial.ops)
	res.ops.add(res.par.ops)
	return res, nil
}

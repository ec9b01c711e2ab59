package main

// The driver process: for each run it starts a rig process (wire
// workloads) and a fresh monitor process, times set-up from the outside,
// collects the monitor's report, checks it and prints the metrics.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run sets up at least minSetups times and, while the set-ups so far
// took less than setupBudget, up to maxSetups times; setup_s is their
// median. Cheap set-ups (rule_ops: ~30 ms) repeat more, so their median
// steadies.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 5 * time.Second
)

// runTimeout bounds one driver invocation's child processes.
const runTimeout = 170 * time.Second

type driverConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func runDriver(cfg driverConfig) error {
	names := workloads
	if cfg.workload != "" {
		if !slices.Contains(workloads, cfg.workload) {
			return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
		}
		names = []string{cfg.workload}
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout*time.Duration(len(names)))
	defer cancel()
	for _, name := range names {
		if err := driveWorkload(ctx, name, cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// driveWorkload runs one workload and prints its report, ending with the
// one-line JSON result.
func driveWorkload(ctx context.Context, name string, cfg driverConfig) error {
	base := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-%d", name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(base)
	mc := monitorConfig{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds}
	var line resultLine
	if !cfg.trace {
		var setups []float64
		t0 := time.Now()
		for k := 1; k < minSetups || (k < maxSetups && time.Since(t0) < setupBudget); k++ {
			mc.SetupOnly = true
			s, _, err := runOnce(ctx, mc, filepath.Join(base, fmt.Sprintf("setup%d", k)))
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		mc.SetupOnly = false
		s, res, err := runOnce(ctx, mc, filepath.Join(base, "run"))
		if err != nil {
			return err
		}
		setups = append(setups, s)
		line = endToEnd(os.Stdout, res, setups)
	} else {
		_, plain, err := runOnce(ctx, mc, filepath.Join(base, "plain"))
		if err != nil {
			return err
		}
		mc.Traced = true
		mc.Spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(mc.Spans), 0o755); err != nil {
			return err
		}
		_, traced, err := runOnce(ctx, mc, filepath.Join(base, "traced"))
		if err != nil {
			return err
		}
		if err := parity(plain, traced); err != nil {
			return fmt.Errorf("traced and untraced runs disagree: %w", err)
		}
		line = perLayer(os.Stdout, plain, traced)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if cfg.out != "" {
		if err := appendResult(cfg.out, name, cfg.seed, cfg.trace, line); err != nil {
			return err
		}
	}
	fmt.Println(string(b))
	return nil
}

// runOnce runs one monitor process (with its rig) to completion and
// returns its set-up time and report. Set-up time runs from the monitor
// process's start to its "ready" line, less the time it spent generating
// its inputs.
func runOnce(ctx context.Context, mc monitorConfig, dir string) (float64, *runResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	mc.Dir = dir
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	if sh := shapeOf(mc.Workload); sh.wire {
		rig, addrs, err := startRigProcess(ctx, self, sh.switches)
		if err != nil {
			return 0, nil, err
		}
		defer rig.stop()
		mc.Rig = addrs
	}
	cfgJSON, err := json.Marshal(mc)
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-role", "monitor", "-config", string(cfgJSON))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var (
		setup float64
		res   *runResult
		perr  error
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		kind, body, _ := strings.Cut(sc.Text(), " ")
		switch kind {
		case "ready":
			var ri readyInfo
			if err := json.Unmarshal([]byte(body), &ri); err != nil {
				perr = err
			}
			setup = time.Since(start).Seconds() - ri.InputS
		case "result":
			res = new(runResult)
			if err := json.Unmarshal([]byte(body), res); err != nil {
				perr = err
			}
		}
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("monitor process: %w", err)
	}
	if perr != nil {
		return 0, nil, perr
	}
	if setup == 0 {
		return 0, nil, fmt.Errorf("monitor process never became ready")
	}
	if res == nil && !mc.SetupOnly {
		return 0, nil, fmt.Errorf("monitor process reported no result")
	}
	return setup, res, nil
}

// diesWithParent has the kernel kill a child process if the driver dies
// first, so no rig or monitor outlives a killed run.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// rigProcess is a running rig; closing its stdin stops it.
type rigProcess struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

func startRigProcess(ctx context.Context, self string, switches int) (*rigProcess, rigAddrs, error) {
	cmd := exec.CommandContext(ctx, self, "-role", "rig", "-switches", strconv.Itoa(switches))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, rigAddrs{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, rigAddrs{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, rigAddrs{}, err
	}
	rp := &rigProcess{cmd: cmd, stdin: stdin}
	var addrs rigAddrs
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err == nil {
		err = json.Unmarshal([]byte(line), &addrs)
	}
	if err != nil {
		rp.stop()
		return nil, rigAddrs{}, fmt.Errorf("rig process: %w", err)
	}
	return rp, addrs, nil
}

func (rp *rigProcess) stop() {
	rp.stdin.Close()
	rp.cmd.Wait()
}

// runRig is the rig process: it serves until its stdin closes.
func runRig(switches int) error {
	if switches <= 0 {
		return fmt.Errorf("-switches must be positive")
	}
	r, err := startRig(switches, false)
	if err != nil {
		return err
	}
	defer r.close()
	b, err := json.Marshal(r.addrs())
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	io.Copy(io.Discard, os.Stdin)
	return nil
}

// Command perfbench is the repository benchmark. It runs one workload
// closed-loop with a single client, one operation at a time, each in a
// fresh child process, for a fixed number of seconds; it checks every
// operation's output and prints the end-to-end metrics, or with -trace 1
// the per-layer split, ending with one JSON line:
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 35 --trace 0
//
// run.sh builds this program and runs it from the repository root.
// README.md describes the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir holds the run's inputs and span files.
	dir string
	// self is this executable, re-run as the child of every operation.
	self string
}

// childArgs are a child's inputs.
type childArgs struct {
	seed  uint64
	input string
}

// childOut is what a child reports on its standard output.
type childOut struct {
	// Refs is the simulated page references the operation processed.
	Refs   int64      `json:"refs"`
	Tables *tablesOut `json:"tables,omitempty"`
	Stream *streamOut `json:"stream,omitempty"`
	Kernel *kernelOut `json:"kernel,omitempty"`
	Spans  []span     `json:"spans,omitempty"`
	// PeakRSSKiB is the child's own peak resident set (VmHWM). The
	// rusage of a child would also count the parent's resident set at
	// the fork.
	PeakRSSKiB int64 `json:"peakRSSKiB"`
}

// prep is a workload's prepared run.
type prep struct {
	// again runs the set-up once and returns its seconds. The benchmark
	// runs it before every operation, so setup_s is a median over the
	// same stretch of time as the operations' own.
	again func() (float64, error)
	// args are extra child arguments.
	args []string
	// check returns what is wrong with one operation's output.
	check func(*childOut) []string
	// layers, when set, returns per-layer metrics measured in set-up.
	layers func() map[string]float64
	// rec, when set, holds the set-up's spans.
	rec     *recorder
	cleanup func()
}

type workload struct {
	name  string
	setup func(*config) (*prep, error)
	op    func(*childArgs, *recorder) (childOut, error)
}

var benchWorkloads = []workload{
	{"tables", tablesSetup, tablesOp},
	{"stream", streamSetup, streamOp},
	{"kernel", kernelSetup, kernelOp},
}

func findWorkload(name string) *workload {
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			return &benchWorkloads[i]
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: tables, stream, kernel, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs traced operations and reports the per-layer split")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for generated inputs and span files")
	child := flag.String("child", "", "run one operation of this workload and print its output (used by the benchmark itself)")
	traced := flag.Bool("traced", false, "with -child: record spans")
	input := flag.String("input", "", "with -child: the operation's input file")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *traced, &childArgs{seed: *seed, input: *input}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	self, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(*dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dir: *dir, self: self}
	var ws []*workload
	if *name == "all" {
		for i := range benchWorkloads {
			ws = append(ws, &benchWorkloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		ws = append(ws, w)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want tables, stream, kernel or all)\n", *name)
		os.Exit(2)
	}
	var reps []*report
	for _, w := range ws {
		r, err := run(w, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.print(os.Stdout)
		reps = append(reps, r)
	}
	line, err := json.Marshal(result(reps, c.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runChild runs one operation and writes its output as JSON.
func runChild(name string, traced bool, a *childArgs) error {
	if name == "noop" {
		_, err := os.Stdout.WriteString("{}\n")
		return err
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var rec *recorder
	if traced {
		rec = newRecorder(name, a.seed)
	}
	out, err := w.op(a, rec)
	if err != nil {
		return err
	}
	if rec != nil {
		out.Spans = rec.spans
	}
	if out.PeakRSSKiB, err = peakRSSKiB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// peakRSSKiB reads this process's peak resident set from
// /proc/self/status.
func peakRSSKiB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// sample is one operation as the parent saw it.
type sample struct {
	traced bool
	// wall is the child's host seconds from start to exit.
	wall     float64
	out      childOut
	problems []string
}

// spawn runs one child and waits for it.
func spawn(c *config, args []string) (sample, error) {
	cmd := exec.Command(c.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child never outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds()}
	if err != nil {
		return s, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &s.out); err != nil {
		return s, fmt.Errorf("child %v: bad output: %w", args, err)
	}
	return s, nil
}

// run prepares the workload and runs operations until the time is up:
// untraced ones, alternating with traced ones when tracing.
func run(w *workload, c *config) (*report, error) {
	p, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if p.cleanup != nil {
		defer p.cleanup()
	}
	args := append([]string{"-child", w.name, "-seed", strconv.FormatUint(c.seed, 10)}, p.args...)
	r := &report{workload: w.name, cfg: c, prep: p}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		d, err := p.again()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.setup = append(r.setup, d)
		traced := c.trace && i%2 == 1
		a := args
		if traced {
			a = append(a[:len(a):len(a)], "-traced")
		}
		s, err := spawn(c, a)
		s.traced = traced
		if err != nil {
			s.problems = []string{err.Error()}
		} else {
			s.problems = p.check(&s.out)
		}
		r.samples = append(r.samples, s)
		if time.Now().After(deadline) && (!c.trace || i >= 1) {
			break
		}
	}
	if c.trace {
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Command perfbench is the repository benchmark: it drives the sizer
// from outside, through its public entry points, on one of three
// workloads and prints every metric as one JSON line.
//
//	bash perfbench/run.sh --workload cold_table1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced;
// with --trace 1 it runs the layer profile instead (spans kept in
// memory around every call into a layer, written to --trace-out at
// the end) and prints the per-layer metrics.  Every answer is checked
// on an independent path; a failed check makes the exit status 1.
// See README.md for the workloads and the layer → metric predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"minflo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Workload names.
const (
	wCold  = "cold_table1"
	wSweep = "serve_sweep"
	wEco   = "serve_eco"
)

// plans fixes every workload's op count from --seconds: a run performs
// a fixed number of operations, never a time box, sized so that it
// takes about that long on a 2-core host.
type plans struct {
	cold  coldPlan
	sweep servePlan
	eco   servePlan
}

func plansFor(seconds int) plans {
	return plans{
		cold: coldPlan{
			names:     minflo.BenchmarkNames(),
			passes:    max(1, int(math.Round(float64(seconds)/6))),
			setupReps: 31,
		},
		sweep: servePlan{circuits: []string{"c432", "c880"}, clients: 2, steps: 60 * seconds, setupReps: 11},
		eco:   servePlan{eco: true, circuits: []string{"c880", "adder32"}, clients: 2, steps: 30 * seconds, setupReps: 11},
	}
}

// In the layer profile a serve section runs 1/ownShare of its steps
// when it is the traced workload's own section (and once more
// untraced, for the tracing overhead), 1/otherShare otherwise.
const (
	ownShare   = 4
	otherShare = 10
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is the benchmark's last output line.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// errLog keeps the first few failure messages for standard error.
type errLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (e *errLog) add(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if len(e.msgs) < 20 {
		e.msgs = append(e.msgs, fmt.Sprintf(format, args...))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join([]string{wCold, wSweep, wEco}, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "run length the op counts are sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: the traced layer profile")
	traceOut := fs.String("trace-out", "", "span dump of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *trace == 1 && *traceOut == "" {
		*traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", *workload, *seed)
	}
	errs := &errLog{}
	out, err := measure(*workload, *seed, plansFor(*seconds), *trace == 1, *traceOut, errs, stderr)
	for _, m := range errs.msgs {
		fmt.Fprintln(stderr, "perfbench:", m)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or were not verified\n", out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// measure runs one workload, untraced (end-to-end metrics) or as the
// traced layer profile (per-layer metrics).
func measure(workload string, seed int64, p plans, traced bool, traceOut string, errs *errLog, stderr io.Writer) (*outcome, error) {
	switch workload {
	case wCold, wSweep, wEco:
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s)", workload, wCold, wSweep, wEco)
	}
	out := &outcome{Metrics: metricSet{}}
	var err error
	if traced {
		err = profile(workload, seed, p, traceOut, out, errs)
	} else {
		err = endToEnd(workload, seed, p, out, errs, stderr)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	out.Correct = out.Failed == 0 && errs.n == 0
	return out, nil
}

func endToEnd(workload string, seed int64, p plans, out *outcome, errs *errLog, stderr io.Writer) error {
	if workload == wCold {
		r, err := runCold(p.cold, seed, errs)
		if err != nil {
			return err
		}
		r.metrics(out.Metrics)
		out.Attempted, out.Failed = r.attempted, r.failed
		return nil
	}
	plan := p.sweep
	if workload == wEco {
		plan = p.eco
	}
	r, err := runServe(plan, seed, nil, errs)
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, "perfbench:", r.modes())
	r.metrics(out.Metrics)
	out.Attempted, out.Failed = r.attempted, r.failed
	return nil
}

// profile is the traced run.  It covers every layer whatever the
// workload: the cold section (all Table 1 circuits once), the sweep
// section and the ECO section, each with spans around every call into
// a layer.  The tracing overhead compares the named workload's own
// section with an untraced twin: for cold_table1 each circuit is also
// sized untraced right before its traced path; a serve section runs at
// 1/ownShare of its steps and then once more untraced.  Serve sections
// that are not the workload's own run at 1/otherShare.
func profile(workload string, seed int64, p plans, traceOut string, out *outcome, errs *errLog) error {
	tr := newTracer()
	m := out.Metrics

	cp, err := profileCold(p.cold.names, seed, workload == wCold, tr, errs)
	if err != nil {
		return err
	}
	cp.metrics(m)
	out.Attempted += cp.ops
	out.Failed += cp.failed

	section := func(plan servePlan, own bool, layers func(*serveRun, *replayStats, metricSet)) (*serveRun, error) {
		share := otherShare
		if own {
			share = ownShare
		}
		plan.steps = max(1, plan.steps/share)
		plan.setupReps = 1
		r, err := runServe(plan, seed, tr, errs)
		if err != nil {
			return nil, err
		}
		rs, err := replay(r, tr, errs)
		if err != nil {
			return nil, err
		}
		layers(r, rs, m)
		out.Attempted += r.attempted
		out.Failed += r.failed + rs.mismatches
		return r, nil
	}
	sw, err := section(p.sweep, workload == wSweep, sweepLayers)
	if err != nil {
		return err
	}
	eco, err := section(p.eco, workload == wEco, ecoLayers)
	if err != nil {
		return err
	}

	// Tracing overhead on the workload's headline latency, and GC
	// cycles per operation of its traced section.
	switch workload {
	case wCold:
		m.set("trace.overhead_ms", "ms", geomean(cp.sizeMS)-geomean(cp.untracedMS))
		m.set("runtime.gc_per_op", "count", float64(cp.gcs)/float64(cp.ops))
	default:
		traced, plan := sw, p.sweep
		if workload == wEco {
			traced, plan = eco, p.eco
		}
		plan.steps, plan.setupReps = max(1, plan.steps/ownShare), 1
		r, err := runServe(plan, seed, nil, errs)
		if err != nil {
			return err
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		q, _, edits, _ := traced.latencies()
		uq, _, _, _ := r.latencies()
		m.set("trace.overhead_ms", "ms", median(q)-median(uq))
		m.set("runtime.gc_per_op", "count", float64(traced.gcs)/float64(len(q)+len(edits)))
	}
	return tr.write(traceOut)
}

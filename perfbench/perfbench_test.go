package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tinyPlans is the smoke-test scale: small circuits, few operations.
func tinyPlans() plans {
	return plans{
		cold:  coldPlan{names: []string{"c432", "c499"}, passes: 1, setupReps: 2},
		sweep: servePlan{circuits: []string{"c432"}, clients: 2, steps: 15, setupReps: 2},
		eco:   servePlan{eco: true, circuits: []string{"c880"}, clients: 2, steps: 6, setupReps: 2},
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkMetrics reads the metric lists BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func measureTiny(t *testing.T, workload string, traced bool) *outcome {
	t.Helper()
	errs := &errLog{}
	out, err := measure(workload, 3, tinyPlans(), traced, filepath.Join(t.TempDir(), "trace.json"), errs, os.Stderr)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s (traced %v): correct %v, %d of %d failed: %v", workload, traced, out.Correct, out.Failed, out.Attempted, errs.msgs)
	}
	return out
}

// TestSmoke runs every workload at tiny scale, untraced and traced:
// every declared metric is printed with its declared unit, and the
// exact counts repeat bit for bit at a fixed seed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	exact := map[bool][]string{
		false: {"area_ratio", "area_vs_tilos"},
		true: {"core.iters", "core.seed_warm_ratio", "core.seed_fallback_ratio",
			"core.cone_ratio", "core.cone_fallback_ratio", "core.cone_gates_mean"},
	}
	for _, w := range []string{wCold, wSweep, wEco} {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			a := measureTiny(t, w, traced)
			if len(a.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %v, want exactly %d metrics", w, traced, sortedNames(a.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := a.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w, traced, d.Name, m, d.Unit)
				}
			}
			b := measureTiny(t, w, traced)
			for _, name := range exact[traced] {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s traced=%v: %s not repeatable: %v vs %v", w, traced, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

// TestVerifierRejectsCorruptAnswer scales a served answer's sizes down
// and expects the independent check to refuse it.
func TestVerifierRejectsCorruptAnswer(t *testing.T) {
	errs := &errLog{}
	plan := tinyPlans().sweep
	run, err := runServe(plan, 5, nil, errs)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 {
		t.Fatalf("clean run failed %d checks: %v", run.failed, errs.msgs)
	}
	ev := &run.logs[0].events[len(run.logs[0].events)-1]
	for i := range ev.resp.Sizes {
		ev.resp.Sizes[i] *= 0.5
	}
	run.failed, run.attempted = 0, 0
	run.areaRatio, run.vsTilos = nil, nil
	run.verify(errs)
	if run.failed != 1 {
		t.Fatalf("corrupted answer: %d failed checks, want 1", run.failed)
	}
}

func sortedNames(m metricSet) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

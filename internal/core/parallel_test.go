package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/mcmf"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// sizeOnce runs the optimizer on problem p at spec·Dmin with the given
// flow engine and worker budget, returning the full result.
func sizeOnce(t *testing.T, p *dag.Problem, spec float64, engine string, parallelism int) *Result {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Size(p, spec*tm.CP, Options{FlowEngine: engine, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffResults demands bit-identical outcomes: sizes, area, CP,
// iteration count, and the per-iteration trajectory (objective, area,
// CP, clamp counts, window schedule, flow engine and flow-resolve
// counts).
func diffResults(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if got.Area != want.Area || got.CP != want.CP || got.Iterations != want.Iterations {
		t.Fatalf("%s: area/CP/iters %v/%v/%d, serial %v/%v/%d",
			tag, got.Area, got.CP, got.Iterations, want.Area, want.CP, want.Iterations)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: x[%d] = %v, serial %v", tag, i, got.X[i], want.X[i])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d iterations traced, serial %d", tag, len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		w, g := want.Stats[i], got.Stats[i]
		if g.Area != w.Area || g.CP != w.CP || g.Objective != w.Objective ||
			g.Window != w.Window || g.Clamped != w.Clamped || g.Repaired != w.Repaired ||
			g.FlowEngine != w.FlowEngine || g.FlowResolves != w.FlowResolves {
			t.Fatalf("%s: iteration %d diverged: %+v, serial %+v", tag, i+1, g, w)
		}
	}
}

// TestParallelMatchesSerialRandom is the end-to-end determinism gate
// of the intra-run parallelism: across 100+ random logic instances, a
// core.Size at worker budgets 2, 4 and 8 (level-parallel W-phase and
// sensitivity solves) under GOMAXPROCS ∈ {1, 2, 4, 8} must be
// bit-identical to the serial run at budget 1 — same areas, same
// iteration counts, same sizes, same per-iteration trajectory.  The
// flow engine is dial, the production D-phase engine, on both sides.
func TestParallelMatchesSerialRandom(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	count := 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ckt := gen.RandomLogic(4+rng.Intn(6), 30+rng.Intn(40), seed)
		p, err := dag.GateLevel(ckt, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := 0.55 + 0.3*rng.Float64()
		want := sizeOnce(t, p, spec, "dial", 1)
		for _, procs := range []int{1, 2, 4, 8} {
			old := runtime.GOMAXPROCS(procs)
			for _, j := range []int{2, 4, 8} {
				got := sizeOnce(t, p, spec, "dial", j)
				diffResults(t, fmt.Sprintf("%s procs %d j%d", ckt.Name, procs, j), want, got)
			}
			runtime.GOMAXPROCS(old)
		}
		count++
	}
	if count < 100 {
		t.Fatalf("only %d instances exercised, want >= 100", count)
	}
}

// TestParallelMatchesSerialLarge covers the regime the random suite
// cannot: problems big enough that the parallel paths really engage
// (on the wide tree, the level-parallel W-phase above its 128-block
// floor).  The transistor problem adds SCC blocks (dense-block
// sensitivity path).
func TestParallelMatchesSerialLarge(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	cases := []struct {
		name string
		mk   func() (*dag.Problem, error)
		spec float64
	}{
		{"mesh1600", func() (*dag.Problem, error) { return dag.GateLevel(gen.Mesh(40, 40), m) }, 0.9},
		{"tree4k", func() (*dag.Problem, error) { return dag.GateLevel(gen.BalancedTree(1<<12), m) }, 0.9},
		{"adder64T", func() (*dag.Problem, error) {
			return dag.TransistorLevel(gen.RippleAdder(64, gen.FABuffered), m)
		}, 0.7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			want := sizeOnce(t, p, tc.spec, "dial", 1)
			if want.Stats[0].FlowEngine != "dial" {
				t.Fatalf("flow engine %q, want dial", want.Stats[0].FlowEngine)
			}
			for _, j := range []int{2, 4, 8} {
				got := sizeOnce(t, p, tc.spec, "dial", j)
				diffResults(t, fmt.Sprintf("%s j%d", tc.name, j), want, got)
			}
		})
	}
}

// TestResolveFlowEngineAuto pins the auto policy: ""/"auto" resolve to
// dial, explicit registered names pass through, unknown names are
// rejected and only the three engines are registered.  It also pins
// that auto runs are reproducible: two auto runs are bit-identical,
// they equal a pinned-dial run, and an auto cone-local re-size matches
// its serial twin.
func TestResolveFlowEngineAuto(t *testing.T) {
	for _, name := range []string{"", "auto"} {
		if got, err := ResolveFlowEngine(name); err != nil || got != "dial" {
			t.Fatalf("ResolveFlowEngine(%q) = %q, %v; want dial", name, got, err)
		}
	}
	for _, name := range []string{"ssp", "dial", "costscaling"} {
		if got, err := ResolveFlowEngine(name); err != nil || got != name {
			t.Fatalf("explicit %q: got %q, err %v", name, got, err)
		}
	}
	if _, err := ResolveFlowEngine("nope"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	// The fault wrapper is a test-only registration that some test
	// binaries link in; it is not a production engine.
	var engines []string
	for _, name := range mcmf.EngineNames() {
		if name != "fault" {
			engines = append(engines, name)
		}
	}
	if got := fmt.Sprint(engines); got != "[costscaling dial ssp]" {
		t.Fatalf("registered engines %s, want costscaling, dial and ssp", got)
	}

	m := delay.NewModel(tech.Default013())
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ckt := gen.RandomLogic(4+rng.Intn(6), 30+rng.Intn(40), seed)
		p, err := dag.GateLevel(ckt, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := 0.55 + 0.3*rng.Float64()
		a := sizeOnce(t, p, spec, "auto", 1)
		b := sizeOnce(t, p, spec, "auto", 1)
		diffResults(t, ckt.Name+" auto twice", a, b)
		diffResults(t, ckt.Name+" auto vs dial", sizeOnce(t, p, spec, "dial", 1), a)
		for i, st := range a.Stats {
			if st.FlowEngine != "dial" {
				t.Fatalf("%s: iteration %d ran on %q, want dial", ckt.Name, i+1, st.FlowEngine)
			}
		}
	}

	// Cone path: an auto session with a worker budget against its
	// serial twin and a pinned-dial twin, through an edit answered
	// from the cone subproblem.
	coneAnswered := 0
	for inst := 0; inst < 20 && coneAnswered < 3; inst++ {
		rng := rand.New(rand.NewSource(int64(9100 + inst)))
		c := gen.RandomLogic(4+rng.Intn(5), 12+rng.Intn(24), int64(inst))
		mk := func(engine string, j int) *Session {
			s, err := NewEcoSession(mustEco(t, c.Clone()), Options{
				FlowEngine: engine, Parallelism: j, TrustRegion: 0.1, EditConeResize: true,
			})
			if err != nil {
				t.Fatalf("inst %d: %v", inst, err)
			}
			return s
		}
		sessions := []*Session{mk("auto", 4), mk("auto", 1), mk("dial", 1)}
		T := 0.75 * sessions[0].sc.retime(sessions[0].p, sessions[0].p.InitialSizes())
		batch := valueOnlyBatch(c, rng)
		var res [3]*Result
		var errs [3]error
		for k, s := range sessions {
			if _, errs[k] = s.Resize(context.Background(), T, Budgets{}); errs[k] == nil {
				if _, err := s.ApplyEdits(batch); err != nil {
					t.Fatalf("inst %d: %v", inst, err)
				}
				res[k], errs[k] = s.Resize(context.Background(), T, Budgets{})
			}
			s.Close()
		}
		for k := 1; k < 3; k++ {
			if (errs[k] == nil) != (errs[0] == nil) {
				t.Fatalf("inst %d: twin %d error divergence: %v vs %v", inst, k, errs[k], errs[0])
			}
		}
		if errs[0] != nil {
			continue // infeasible at this target
		}
		for k := 1; k < 3; k++ {
			r := res[k]
			if r.Seed != res[0].Seed || !bitEqual(r.X, res[0].X) || r.Area != res[0].Area ||
				r.CP != res[0].CP || r.Iterations != res[0].Iterations {
				t.Fatalf("inst %d: twin %d diverged (seed %q vs %q)", inst, k, r.Seed, res[0].Seed)
			}
		}
		if res[0].Seed == SeedCone {
			coneAnswered++
		}
	}
	if coneAnswered == 0 {
		t.Fatal("no auto re-size was answered from the cone")
	}
}

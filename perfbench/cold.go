package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"minflo"
	"minflo/internal/balance"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/lin"
	"minflo/internal/smp"
	"minflo/internal/sta"
	"minflo/internal/tilos"
)

// coldConfig pins what the cold path may not choose for itself: the
// "auto" engine would time candidate engines on the wall clock, so the
// cold workload fixes dial and a serial run.
var coldConfig = minflo.Config{FlowEngine: "dial", Parallelism: 1}

// tilosBump is the Sizer's default TILOS upsizing factor.
const tilosBump = 1.1

// coldPlan is the cold_table1 workload: every circuit sized cold at
// its Table 1 spec, passes times, each pass in a seeded order.
type coldPlan struct {
	names     []string
	passes    int
	setupReps int
}

type coldCircuit struct {
	name   string
	c      *minflo.Circuit
	target float64
}

// coldSetup builds the circuits and their Table 1 targets
// (PaperSpec × Dmin).
func coldSetup(sz *minflo.Sizer, names []string) ([]coldCircuit, error) {
	out := make([]coldCircuit, len(names))
	for i, name := range names {
		c, err := minflo.CircuitByName(name)
		if err != nil {
			return nil, err
		}
		dmin, err := sz.MinDelay(c)
		if err != nil {
			return nil, fmt.Errorf("%s: Dmin: %w", name, err)
		}
		out[i] = coldCircuit{name: name, c: c, target: minflo.PaperSpec(name) * dmin}
	}
	return out, nil
}

// coldRun is the raw record of one cold_table1 run.
type coldRun struct {
	setup     []float64            // seconds per set-up repetition
	perCkt    map[string][]float64 // ms per sizing, by circuit
	allocMB   float64
	areaRatio []float64 // final / all-minimum area, per sizing
	vsTilos   []float64 // final / TILOS area, per sizing
	attempted int
	failed    int
	liveMB    float64 // live heap after the run
}

// runCold runs the untraced cold workload.
func runCold(plan coldPlan, seed int64, errs *errLog) (*coldRun, error) {
	sz, err := minflo.NewSizer(&coldConfig)
	if err != nil {
		return nil, err
	}
	r := &coldRun{perCkt: map[string][]float64{}}
	// Set-up repeats: the first half before the passes, the rest
	// after them, so the median spans the run.
	setUp := func() ([]coldCircuit, error) {
		t0 := time.Now()
		ckts, err := coldSetup(sz, plan.names)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		return ckts, err
	}
	var ckts []coldCircuit
	before := (plan.setupReps + 1) / 2
	for i := 0; i < before; i++ {
		if ckts, err = setUp(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	type done struct {
		ck  coldCircuit
		res *minflo.Sizing
	}
	var answers []done
	mem := readMem()
	for pass := 0; pass < plan.passes; pass++ {
		order := rng.Perm(len(ckts))
		clones := make([]*minflo.Circuit, len(ckts))
		for i, ck := range ckts {
			clones[i] = ck.c.Clone()
		}
		for _, i := range order {
			ck := ckts[i]
			r.attempted++
			t0 := time.Now()
			res, err := sz.Minflotransit(clones[i], ck.target)
			d := ms(time.Since(t0))
			if err != nil || res.Partial {
				r.failed++
				errs.add("%s: %v", ck.name, err)
				continue
			}
			r.perCkt[ck.name] = append(r.perCkt[ck.name], d)
			answers = append(answers, done{ck, res})
		}
	}
	r.allocMB, _ = mem.since()
	for i := before; i < plan.setupReps; i++ {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}

	// Independent check, outside the timed region.
	m := model()
	for _, a := range answers {
		ns, err := newNetState(a.ck.name)
		if err != nil {
			return nil, err
		}
		p, err := ns.problem(m)
		if err != nil {
			return nil, err
		}
		minArea, err := check(p, ns.areaWeights(p), answer{target: a.ck.target, area: a.res.Area, sizes: a.res.Sizes})
		if err != nil {
			r.failed++
			errs.add("%s: %v", a.ck.name, err)
			continue
		}
		r.areaRatio = append(r.areaRatio, a.res.Area/minArea)
		r.vsTilos = append(r.vsTilos, a.res.Area/a.res.TilosArea)
	}
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	r.liveMB = float64(mst.HeapAlloc) / 1e6
	runtime.KeepAlive(ckts)
	return r, nil
}

// metrics maps a cold run onto the end-to-end metric set.  A cold
// sizing is the workload's only request kind: each one brings a new
// problem, so it is both the query and the edit of this workload.  The
// percentiles are taken over the per-circuit medians: over the raw
// sizings, p50 would fall between two circuits' groups of repeats and
// read whichever extreme repeat borders the gap.  The throughput is
// that of a pass at those medians: a mean over all sizings would be
// carried by the few repeats of the two largest circuits.
func (r *coldRun) metrics(out metricSet) {
	var per []float64
	var passMS float64
	ops := 0
	for _, v := range r.perCkt {
		per = append(per, median(v))
		passMS += median(v)
		ops += len(v)
	}
	out.set("setup_s", "s", median(r.setup))
	out.set("ops_per_s", "1/s", float64(len(per))/(passMS/1e3))
	out.set("size_ms_geomean", "ms", geomean(per))
	out.set("query_ms_p50", "ms", median(per))
	out.set("query_ms_p99", "ms", quantile(per, 0.99))
	out.set("edit_ms_p50", "ms", median(per))
	out.set("area_ratio", "ratio", geomean(r.areaRatio))
	out.set("area_vs_tilos", "ratio", geomean(r.vsTilos))
	out.set("alloc_mb_per_op", "MB", r.allocMB/float64(ops))
	out.set("resident_mb", "MB", r.liveMB)
}

// coldProfile is the traced cold pass: the same sizings, driven layer
// by layer through the exported functions with spans around each call.
type coldProfile struct {
	build, seed, firstIter, iter, tail []float64 // ms per circuit
	staMS, balMS, linMS, smpMS         []float64
	sizeMS                             []float64 // traced sizing, ms per circuit
	untracedMS                         []float64 // its untraced twin, ms per circuit
	tilosTotal, sizeTotal              float64
	iters, resolves, fallbacks, repair int
	gcs                                uint64
	ops, failed                        int
}

// profileCold sizes every circuit once in a seeded order, recording
// spans: dag.build (GateLevel + Augment) and tilos.seed are timed as
// direct calls around the sizing; the sizing itself runs through
// core.Session with the public OnIteration hook timestamping each D/W
// iteration; at the converged sizes the exported sta, balance, lin and
// smp entry points are timed once more.
func profileCold(names []string, seed int64, untraced bool, tr *tracer, errs *errLog) (*coldProfile, error) {
	sz, err := minflo.NewSizer(&coldConfig)
	if err != nil {
		return nil, err
	}
	ckts, err := coldSetup(sz, names)
	if err != nil {
		return nil, err
	}
	m := model()
	prof := &coldProfile{}
	rng := rand.New(rand.NewSource(seed))
	mem := readMem()
	for op, i := range rng.Perm(len(ckts)) {
		ck := ckts[i]
		// The untraced twin (Sizer.Minflotransit, as in the end-to-end
		// run) sizes the circuit right before the traced path, so the
		// tracing overhead compares two readings taken moments apart.
		var twin *minflo.Sizing
		if untraced {
			t0 := time.Now()
			twin, err = sz.Minflotransit(ck.c.Clone(), ck.target)
			d := ms(time.Since(t0))
			prof.ops++
			if err != nil || twin.Partial {
				return nil, fmt.Errorf("%s: untraced sizing: %v", ck.name, err)
			}
			prof.untracedMS = append(prof.untracedMS, d)
		}
		root := tr.begin("cold.size:"+ck.name, 0, op+1)

		// dag.build and tilos.seed are timed as direct calls once
		// before and once after the sizing; the faster of the two is
		// kept, so one disturbed reading does not skew the subtraction
		// that yields core.first_iter_ms.
		var p0 *dag.Problem
		var aug *dag.Augmented
		buildOnce := func() (float64, error) {
			sp := tr.begin("dag.build", root, op+1)
			var err error
			if p0, err = dag.GateLevel(ck.c, m); err != nil {
				return 0, err
			}
			aug = p0.Augment()
			return ms(tr.end(sp)), nil
		}
		seedOnce := func() (float64, error) {
			sp := tr.begin("tilos.seed", root, op+1)
			if _, err := tilos.Size(p0, ck.target, nil, tilos.Options{Bump: tilosBump}); err != nil {
				return 0, fmt.Errorf("%s: tilos: %w", ck.name, err)
			}
			return ms(tr.end(sp)), nil
		}
		build, err := buildOnce()
		if err != nil {
			return nil, err
		}
		seedMS, err := seedOnce()
		if err != nil {
			return nil, err
		}

		var cbs []time.Duration
		var stats []core.IterStats
		sp := tr.begin("core.size", root, op+1)
		t0 := tr.at()
		p, err := dag.GateLevel(ck.c, m)
		if err != nil {
			return nil, err
		}
		sess, err := core.NewSession(p, core.Options{
			FlowEngine: coldConfig.FlowEngine, Parallelism: coldConfig.Parallelism,
			Tilos: tilos.Options{Bump: tilosBump},
			OnIteration: func(st core.IterStats) {
				cbs = append(cbs, tr.at()-t0)
				stats = append(stats, st)
			},
		})
		if err != nil {
			return nil, err
		}
		res, err := sess.Resize(context.Background(), ck.target, core.Budgets{})
		total := tr.at() - t0
		tr.end(sp)
		sess.Close()
		prof.ops++
		if err != nil || res.Partial || len(cbs) == 0 {
			return nil, fmt.Errorf("%s: traced sizing: %v (partial or no iterations if nil)", ck.name, err)
		}
		if b, err := buildOnce(); err != nil {
			return nil, err
		} else if b < build {
			build = b
		}
		if t, err := seedOnce(); err != nil {
			return nil, err
		} else if t < seedMS {
			seedMS = t
		}
		prev := time.Duration(0)
		var gaps []float64
		for k, cb := range cbs {
			tr.record(fmt.Sprintf("core.iter.%d", k+1), sp, op+1, t0+prev, t0+cb)
			if k > 0 {
				gaps = append(gaps, ms(cb-prev))
			}
			prev = cb
		}
		prof.build = append(prof.build, build)
		prof.seed = append(prof.seed, seedMS)
		prof.firstIter = append(prof.firstIter, ms(cbs[0])-build-seedMS)
		if len(gaps) > 0 {
			prof.iter = append(prof.iter, median(gaps))
		}
		prof.tail = append(prof.tail, ms(total-cbs[len(cbs)-1]))
		prof.sizeMS = append(prof.sizeMS, ms(total))
		prof.tilosTotal += seedMS
		prof.sizeTotal += ms(total)
		last := stats[len(stats)-1]
		prof.iters += len(stats)
		prof.resolves += last.FlowResolves
		prof.fallbacks += last.FlowFallbacks
		for _, st := range stats {
			if st.Repaired {
				prof.repair++
			}
		}

		// Layer entry points at the converged sizing.
		n := p0.NumSizable
		d := aug.Delays(res.X)
		var tm *sta.Timing
		var lerr error
		layer := func(name string, fn func() error) float64 {
			v, err := timeLayer(tr, name, root, op+1, fn)
			if err != nil && lerr == nil {
				lerr = fmt.Errorf("%s: %s at converged sizing: %w", ck.name, name, err)
			}
			return v
		}
		prof.staMS = append(prof.staMS, layer("sta.analyze", func() error {
			tm, err = sta.Analyze(aug.G, d)
			return err
		}))
		prof.balMS = append(prof.balMS, layer("balance", func() error {
			_, err := balance.Balance(aug.G, d, tm, balance.ALAP)
			return err
		}))
		prof.linMS = append(prof.linMS, layer("lin.sens", func() error {
			_, err := lin.Sensitivities(p0.Coeffs, res.X, d[:n], p0.AreaW)
			return err
		}))
		prof.smpMS = append(prof.smpMS, layer("smp.solve", func() error {
			_, err := smp.Solve(p0.Coeffs, d[:n], p0.MinSize, p0.MaxSize, smp.Options{})
			return err
		}))
		if lerr != nil {
			return nil, lerr
		}
		answers := []answer{{target: ck.target, area: res.Area, sizes: res.X}}
		if twin != nil {
			answers = append(answers, answer{target: ck.target, area: twin.Area, sizes: twin.Sizes})
		}
		for _, a := range answers {
			if _, err := check(p0, p0.AreaW, a); err != nil {
				prof.failed++
				errs.add("%s: profiled answer: %v", ck.name, err)
			}
		}
		tr.end(root)
	}
	_, prof.gcs = mem.since()
	return prof, nil
}

// layerReps is how often a converged-state layer call repeats; the
// median is kept.
const layerReps = 3

// timeLayer times fn layerReps times under one span each and returns
// the median in ms.
func timeLayer(tr *tracer, name string, parent, op int, fn func() error) (float64, error) {
	var v []float64
	for i := 0; i < layerReps; i++ {
		sp := tr.begin(name, parent, op)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(t0)))
		tr.end(sp)
	}
	return median(v), nil
}

func (pr *coldProfile) metrics(out metricSet) {
	iter := geomean(pr.iter)
	out.set("dag.build_ms", "ms", geomean(pr.build))
	out.set("tilos.seed_ms", "ms", geomean(pr.seed))
	out.set("tilos.share", "ratio", pr.tilosTotal/pr.sizeTotal)
	out.set("core.first_iter_ms", "ms", median(pr.firstIter))
	out.set("core.iter_ms", "ms", iter)
	out.set("core.tail_ms", "ms", geomean(pr.tail))
	out.set("core.iters", "count", float64(pr.iters))
	sta, bal, lin, smp := geomean(pr.staMS), geomean(pr.balMS), geomean(pr.linMS), geomean(pr.smpMS)
	out.set("sta.analyze_ms", "ms", sta)
	out.set("balance.ms", "ms", bal)
	out.set("lin.sens_ms", "ms", lin)
	out.set("smp.solve_ms", "ms", smp)
	out.set("mcmf.flow_ms_est", "ms", iter-sta-bal-lin-smp)
	out.set("mcmf.resolve_ratio", "ratio", ratio(pr.resolves, pr.iters))
	out.set("mcmf.full_fallbacks", "count", float64(pr.fallbacks))
	out.set("core.repairs", "count", float64(pr.repair))
}

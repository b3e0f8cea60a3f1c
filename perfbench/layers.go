package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"minflo"
	"minflo/internal/cell"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/serve"
)

func respBytes(r *serve.QueryResponse) int {
	b, err := json.Marshal(r)
	if err != nil {
		return 0
	}
	return len(b) + 1 // the encoder's trailing newline
}

// toDagEdits maps a wire batch onto typed edits, as the daemon does
// for the value-only ops the workloads send.
func toDagEdits(ops []serve.EditOp) ([]dag.Edit, error) {
	out := make([]dag.Edit, len(ops))
	for i, e := range ops {
		switch e.Op {
		case "load":
			out[i] = dag.Edit{Op: dag.EditLoad, Gate: e.Gate, LoadFF: e.LoadFF}
		case "retype":
			k, ok := cell.ByName(e.Cell)
			if !ok {
				return nil, fmt.Errorf("unknown cell %q", e.Cell)
			}
			out[i] = dag.Edit{Op: dag.EditRetype, Gate: e.Gate, Cell: k}
		default:
			return nil, fmt.Errorf("unsupported edit op %q", e.Op)
		}
	}
	return out, nil
}

// replayStats is what a direct core.Session replay of the served
// histories measured, without HTTP, queueing or JSON in the way.
type replayStats struct {
	resize, warm, cold, cone []float64 // Resize ms: all measured, by seed kind
	applyCore, applyDag      []float64 // ApplyEdits / dag.Eco.Apply ms
	queries, warmN, fellBack int
	iters                    int
	postEdit, coneN, coneFB  int
	coneGates                int
	mismatches               int
}

// replay re-runs every session's served history on a direct
// core.Session built exactly as the daemon builds one.  By the
// replay-determinism contract each answer must match the daemon's bit
// for bit; a mismatch counts as a failed operation.  A plain dag.Eco
// replays the edit batches alongside to time the patch layer alone.
func replay(run *serveRun, tr *tracer, errs *errLog) (*replayStats, error) {
	m := model()
	cfg := serveConfig(run.plan.eco)
	rs := &replayStats{}
	ctx := context.Background()
	for si, sl := range run.logs {
		c, err := minflo.CircuitByName(sl.circuit)
		if err != nil {
			return nil, err
		}
		eco, err := dag.NewEco(c, m)
		if err != nil {
			return nil, err
		}
		sess, err := core.NewEcoSession(eco, core.Options{
			FlowEngine: cfg.Engine, Parallelism: cfg.Parallelism,
			TrustRegion: cfg.TrustRegion, EditConeBudget: cfg.EditConeBudget,
			EditConeResize: cfg.EditConeResize,
		})
		if err != nil {
			return nil, err
		}
		c2, err := minflo.CircuitByName(sl.circuit)
		if err != nil {
			sess.Close()
			return nil, err
		}
		plain, err := dag.NewEco(c2, m)
		if err != nil {
			sess.Close()
			return nil, err
		}
		for i := range sl.events {
			ev := &sl.events[i]
			op := 10_000_000 + si*100_000 + i
			if ev.req.edits != nil {
				if ev.failed {
					continue
				}
				a, err := toDagEdits(ev.req.edits)
				if err != nil {
					sess.Close()
					return nil, err
				}
				b, _ := toDagEdits(ev.req.edits)
				sp := tr.begin("dag.eco_apply", 0, op)
				t0 := time.Now()
				_, errA := plain.Apply(a)
				rs.applyDag = append(rs.applyDag, ms(time.Since(t0)))
				tr.end(sp)
				sp = tr.begin("core.apply_edits", 0, op)
				t0 = time.Now()
				_, errB := sess.ApplyEdits(b)
				rs.applyCore = append(rs.applyCore, ms(time.Since(t0)))
				tr.end(sp)
				if errA != nil || errB != nil {
					rs.mismatches++
					errs.add("%s: replayed edit %d: %v / %v", sl.id, i, errA, errB)
				}
				continue
			}
			if len(ev.req.weights) > 0 {
				gates := make([]int, len(ev.req.weights))
				ws := make([]float64, len(ev.req.weights))
				for k, aw := range ev.req.weights {
					gates[k], ws[k] = aw.Gate, aw.Weight
				}
				if err := sess.SetAreaWeights(gates, ws); err != nil {
					rs.mismatches++
					errs.add("%s: replayed weights %d: %v", sl.id, i, err)
				}
			}
			sp := tr.begin("core.resize", 0, op)
			t0 := time.Now()
			res, err := sess.Resize(ctx, ev.target, core.Budgets{})
			d := ms(time.Since(t0))
			tr.end(sp)
			if (err != nil) != ev.failed || (err == nil && (res.Area != ev.resp.Area || res.Seed != ev.resp.Seed)) {
				rs.mismatches++
				errs.add("%s: replayed query %d differs from the daemon's answer (err %v)", sl.id, i, err)
				continue
			}
			if err != nil || ev.setup {
				continue
			}
			rs.queries++
			rs.resize = append(rs.resize, d)
			rs.iters += res.Iterations
			switch res.Seed {
			case core.SeedWarm:
				rs.warmN++
				rs.warm = append(rs.warm, d)
			case core.SeedCone:
				rs.coneN++
				rs.coneGates += res.ConeGates
				rs.cone = append(rs.cone, d)
			default:
				rs.cold = append(rs.cold, d)
			}
			if res.SeedFallback {
				rs.fellBack++
			}
			if ev.req.postEdit {
				rs.postEdit++
				if res.ConeFallback {
					rs.coneFB++
				}
			}
		}
		sess.Close()
	}
	return rs, nil
}

// sweepLayers reports the warm-loop and serve-overhead layer metrics
// from the sweep section.
func sweepLayers(run *serveRun, rs *replayStats, out metricSet) {
	q, _, _, _ := run.latencies()
	var bytes []float64
	for _, sl := range run.logs {
		for _, ev := range sl.events {
			if !ev.setup && ev.resp != nil {
				bytes = append(bytes, float64(ev.bytes))
			}
		}
	}
	out.set("core.warm_resize_ms", "ms", median(rs.warm))
	out.set("core.cold_resize_ms", "ms", median(rs.cold))
	out.set("core.seed_warm_ratio", "ratio", ratio(rs.warmN, rs.queries))
	out.set("core.seed_fallback_ratio", "ratio", ratio(rs.fellBack, rs.queries))
	out.set("core.iters_per_query", "count", ratio(rs.iters, rs.queries))
	out.set("serve.query_overhead_ms", "ms", median(q)-median(rs.resize))
	out.set("serve.submit_ms", "ms", median(run.submitMS))
	out.set("serve.resp_kb", "KB", mean(bytes)/1024)
}

// ecoLayers reports the edit-path, cone and ledger layer metrics from
// the ECO section.
func ecoLayers(run *serveRun, rs *replayStats, out metricSet) {
	_, _, edits, _ := run.latencies()
	out.set("dag.eco_apply_ms", "ms", median(rs.applyDag))
	out.set("serve.edit_overhead_ms", "ms", median(edits)-median(rs.applyCore))
	out.set("core.cone_resize_ms", "ms", median(rs.cone))
	out.set("core.cone_ratio", "ratio", ratio(rs.coneN, rs.postEdit))
	out.set("core.cone_fallback_ratio", "ratio", ratio(rs.coneFB, rs.postEdit))
	out.set("core.cone_gates_mean", "count", ratio(rs.coneGates, rs.coneN))
	var growth []float64
	for _, sl := range run.logs {
		growth = append(growth, float64(run.memEnd[sl.id]-sl.memSetup)/1024)
	}
	out.set("serve.ledger_kb", "KB", mean(growth))
}

package main

import (
	"fmt"
	"math"

	"minflo"
	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/serve"
	"minflo/internal/sta"
	"minflo/internal/tech"
	"minflo/internal/tilos"
)

// model is the delay model every surface of the program uses by
// default (minflo.NewSizer(nil), serve.New): 0.13 µm defaults.
func model() *delay.Model { return delay.NewModel(tech.Default013()) }

// netState is the verifier's own copy of one netlist as the program
// should see it: the circuit with every accepted retype applied, the
// extra output loads, and the sticky what-if area weights.  It is
// advanced from the benchmark's request log, never from program state.
type netState struct {
	c       *circuit.Circuit
	extra   []float64
	weights map[int]float64
	p       *dag.Problem // fresh build of the current netlist; nil when stale
}

func newNetState(name string) (*netState, error) {
	c, err := minflo.CircuitByName(name)
	if err != nil {
		return nil, err
	}
	return &netState{c: c, extra: make([]float64, c.NumGates()), weights: map[int]float64{}}, nil
}

// applyEdits replays an accepted value-only edit batch.
func (s *netState) applyEdits(ops []serve.EditOp) error {
	for _, e := range ops {
		if e.Gate < 0 || e.Gate >= s.c.NumGates() {
			return fmt.Errorf("edit gate %d out of range", e.Gate)
		}
		switch e.Op {
		case "load":
			s.extra[e.Gate] = e.LoadFF
		case "retype":
			k, ok := cell.ByName(e.Cell)
			if !ok {
				return fmt.Errorf("unknown cell %q", e.Cell)
			}
			s.c.Gates[e.Gate].Kind = k
			// A retype resets any sticky weight to the new cell's area.
			delete(s.weights, e.Gate)
		default:
			return fmt.Errorf("verifier: unsupported edit op %q", e.Op)
		}
	}
	s.p = nil
	return nil
}

func (s *netState) setWeights(aws []serve.AreaWeight) {
	for _, aw := range aws {
		s.weights[aw.Gate] = aw.Weight
	}
}

// problem rebuilds the sizing problem from the netlist with
// dag.GateLevel and patches the rows of loaded gates from the delay
// model directly (cached until the next edit).
func (s *netState) problem(m *delay.Model) (*dag.Problem, error) {
	if s.p != nil {
		return s.p, nil
	}
	p, err := dag.GateLevel(s.c, m)
	if err != nil {
		return nil, err
	}
	fanPtr, fanIdx, poCount := s.c.FanoutsCSR()
	for gi, x := range s.extra {
		if x == 0 {
			continue
		}
		k, err := m.GateCoeff(s.c, gi, fanIdx[fanPtr[gi]:fanPtr[gi+1]], poCount[gi], x)
		if err != nil {
			return nil, err
		}
		p.Coeffs[gi] = k
	}
	s.p = p
	return p, nil
}

// areaWeights returns the per-gate area weights in effect.
func (s *netState) areaWeights(p *dag.Problem) []float64 {
	w := append([]float64(nil), p.AreaW...)
	for g, v := range s.weights {
		w[g] = v
	}
	return w
}

// answer is one sizing the program returned.
type answer struct {
	target float64
	area   float64
	sizes  []float64
}

// check verifies an answer on a fresh path: delays evaluated from the
// per-gate coefficients (not the program's flattened CSR), a full
// sta.Analyze, the size bounds, and the area recomputed with the
// weights in effect.  It returns the all-minimum area under those
// weights (the area_ratio denominator).
func check(p *dag.Problem, w []float64, a answer) (minArea float64, err error) {
	n := p.NumSizable
	if len(a.sizes) != n {
		return 0, fmt.Errorf("got %d sizes, want %d", len(a.sizes), n)
	}
	lo, hi := p.MinSize*(1-1e-9), p.MaxSize*(1+1e-9)
	var area float64
	for i, x := range a.sizes {
		if !(x >= lo && x <= hi) {
			return 0, fmt.Errorf("size[%d] = %g outside [%g, %g]", i, x, p.MinSize, p.MaxSize)
		}
		area += w[i] * x
		minArea += w[i] * p.MinSize
	}
	if math.Abs(area-a.area) > 1e-9*math.Max(1, math.Abs(area)) {
		return 0, fmt.Errorf("reported area %.12g, recomputed %.12g", a.area, area)
	}
	d := make([]float64, p.G.N())
	copy(d, delay.Delays(p.Coeffs, a.sizes))
	tm, err := sta.Analyze(p.G, d)
	if err != nil {
		return 0, err
	}
	if tm.CP > a.target*(1+1e-9) {
		return 0, fmt.Errorf("critical path %.6g ps misses target %.6g ps", tm.CP, a.target)
	}
	return minArea, nil
}

// tilosArea sizes the current netlist with the TILOS baseline at the
// target, under the weights in effect: the paper's reference point.
// ok is false when TILOS cannot reach the target.
func tilosArea(s *netState, w []float64, target float64) (area float64, ok bool) {
	eco, err := dag.NewEcoWithExtra(s.c.Clone(), model(), s.extra)
	if err != nil {
		return 0, false
	}
	p := eco.P
	copy(p.AreaW, w)
	r, err := tilos.Size(p, target, nil, tilos.Options{Bump: tilosBump})
	if err != nil {
		return 0, false
	}
	return r.Area, true
}

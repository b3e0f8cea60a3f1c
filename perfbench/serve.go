package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"minflo"
	"minflo/internal/cell"
	"minflo/internal/serve"
)

// serveConfig is the daemon as minflod ships it (engine ssp, -j 1,
// -trust-region 0.05); the ECO workload adds -edit-cone-resize.
func serveConfig(eco bool) serve.Config {
	return serve.Config{Engine: "ssp", Parallelism: 1, TrustRegion: 0.05, EditConeResize: eco}
}

// servePlan is a serve workload: clients closed-loop clients, each
// owning one session per circuit, each running steps planned steps.
// A sweep step is one query; an ECO step is an edit batch, the query
// right after it, and one more query.
type servePlan struct {
	eco       bool
	circuits  []string
	clients   int
	steps     int
	setupReps int
}

// Query targets are fractions of each session's Dmin.  Sessions sweep
// a fixed grid of sweepPoints targets, one grid step per query (inside
// the 5% trust region), and jump back to the start of the grid after
// the last point (outside it, so the jump restarts cold).  Even
// sessions sweep up from the tight end of the range, odd ones down
// from the loose end.  The seed draws the jitter on every target, the
// what-if weights and the ECO edit sites; the schedule itself is fixed,
// so every seed gives the same mix of warm steps, jumps, what-ifs and
// edits.
const (
	firstFrac   = 0.55  // every session's first (cold) query
	gridStep    = 0.015 // grid spacing (×Dmin): at most 3.4% of a target
	sweepPoints = 9     // one jump (cold restart) per 9 grid queries
	jitter      = 0.003 // each target × (1 ± up to 0.3%)
	sweepLo     = 0.45  // target range of the sweeps
	sweepHi     = 0.69
	ecoLo       = 0.50
	ecoHi       = 0.695
	whatIfAt    = 8    // every 8th sweep query carries what-if weights
	whatIfW     = 0.02 // what-if weights: unit area × (1 ± up to 2%)
	siteFrac    = 0.05 // ECO edit sites: gates whose fanout cone is at most this share
)

// grid returns the sweep targets of session s, in sweep order.
func grid(lo, hi float64, s int) []float64 {
	g := make([]float64, sweepPoints)
	for k := range g {
		if s%2 == 0 {
			g[k] = lo + float64(k)*gridStep
		} else {
			g[k] = hi - float64(k)*gridStep
		}
	}
	return g
}

func jittered(rng *rand.Rand, f float64) float64 { return f * (1 + jitter*(2*rng.Float64()-1)) }

// request is one planned client request: an edit batch when edits is
// non-nil, else a query.
type request struct {
	sess     int
	edits    []serve.EditOp
	frac     float64
	weights  []serve.AreaWeight
	postEdit bool // the query right after an edit batch
}

// ckInfo is what the input generator knows about a circuit.
type ckInfo struct {
	kinds    []cell.Kind
	unitArea []float64
	sites    []int // gates with a small forward cone (ECO edit sites)
}

func circuitInfo(name string) (ckInfo, error) {
	c, err := minflo.CircuitByName(name)
	if err != nil {
		return ckInfo{}, err
	}
	n := c.NumGates()
	info := ckInfo{kinds: make([]cell.Kind, n), unitArea: make([]float64, n)}
	for g := range c.Gates {
		info.kinds[g] = c.Gates[g].Kind
		info.unitArea[g] = cell.Get(c.Gates[g].Kind).UnitArea
	}
	fan, _ := c.Fanouts()
	seen := make([]int, n)
	stamp := 0
	for g := 0; g < n; g++ {
		stamp++
		stack, cone := []int{g}, 0
		seen[g] = stamp
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cone++
			for _, v := range fan[u] {
				if seen[v] != stamp {
					seen[v] = stamp
					stack = append(stack, v)
				}
			}
		}
		if float64(cone) <= siteFrac*float64(n) {
			info.sites = append(info.sites, g)
		}
	}
	if len(info.sites) < 4 {
		return ckInfo{}, fmt.Errorf("%s: only %d local edit sites", name, len(info.sites))
	}
	return info, nil
}

// retypePartner is the equal-arity, equal-area cell an ECO retype
// swaps a gate to (and back from).  Equal area keeps the gate's area
// weight, so the edit stays inside the trust region; a cell with no
// partner (INV, BUF) gets a load edit instead.
var retypePartner = map[cell.Kind]cell.Kind{}

func init() {
	for _, pair := range [][2]cell.Kind{
		{minflo.Nand2, minflo.Nor2}, {minflo.Nand3, minflo.Nor3}, {minflo.Nand4, minflo.Nor4},
		{minflo.And2, minflo.Or2}, {minflo.And3, minflo.Or3}, {minflo.And4, minflo.Or4},
		{minflo.Xor2, minflo.Xnor2}, {minflo.Aoi21, minflo.Oai21},
	} {
		retypePartner[pair[0]], retypePartner[pair[1]] = pair[1], pair[0]
	}
}

// planClient draws one client's request sequence from its seed.
func planClient(plan servePlan, infos []ckInfo, rng *rand.Rand) []request {
	grids := make([][]float64, len(infos))
	pos := make([]int, len(infos))
	for s := range infos {
		lo, hi := sweepLo, sweepHi
		if plan.eco {
			lo, hi = ecoLo, ecoHi
		}
		grids[s] = grid(lo, hi, s)
	}
	// point returns session s's next grid point (wrapping = a jump).
	point := func(s int) float64 {
		f := grids[s][pos[s]%len(grids[s])]
		pos[s]++
		return f
	}
	var reqs []request
	if !plan.eco {
		for i := 0; i < plan.steps; i++ {
			s := i % len(infos)
			r := request{sess: s, frac: jittered(rng, point(s))}
			if i%whatIfAt == whatIfAt/2 {
				for k := 0; k < 4; k++ {
					g := rng.Intn(len(infos[s].unitArea))
					r.weights = append(r.weights, serve.AreaWeight{Gate: g,
						Weight: infos[s].unitArea[g] * (1 + whatIfW*(2*rng.Float64()-1))})
				}
			}
			reqs = append(reqs, r)
		}
		return reqs
	}

	// ECO: each step is an edit batch, a query right after it at the
	// current target (jittered again), and a query at the next grid
	// point.  Batches alternate load and retype edits; every third
	// carries a second edit.
	kinds := make([][]cell.Kind, len(infos))
	loaded := make([]map[int]bool, len(infos))
	cur := make([]float64, len(infos))
	for s, in := range infos {
		kinds[s] = append([]cell.Kind(nil), in.kinds...)
		loaded[s] = map[int]bool{}
		cur[s] = point(s)
	}
	for i := 0; i < plan.steps; i++ {
		s := i % len(infos)
		in := infos[s]
		var ops []serve.EditOp
		used := map[int]bool{}
		batch := 1
		if i%3 == 2 {
			batch = 2
		}
		for k := 0; k < batch; k++ {
			g := in.sites[rng.Intn(len(in.sites))]
			if used[g] {
				continue
			}
			used[g] = true
			partner, swappable := retypePartner[in.kinds[g]]
			if !swappable || (i+k)%2 == 0 {
				load := 0.0
				if !loaded[s][g] {
					load = 5 + 20*rng.Float64()
				}
				loaded[s][g] = !loaded[s][g]
				ops = append(ops, serve.EditOp{Op: "load", Gate: g, LoadFF: load})
				continue
			}
			to := partner
			if kinds[s][g] != in.kinds[g] {
				to = in.kinds[g]
			}
			kinds[s][g] = to
			ops = append(ops, serve.EditOp{Op: "retype", Gate: g, Cell: cell.Get(to).Name})
		}
		reqs = append(reqs, request{sess: s, edits: ops})
		reqs = append(reqs, request{sess: s, frac: jittered(rng, cur[s]), postEdit: true})
		cur[s] = point(s)
		reqs = append(reqs, request{sess: s, frac: jittered(rng, cur[s])})
	}
	return reqs
}

// harness is an in-process daemon on a loopback listener.
type harness struct {
	srv  *serve.Server
	hs   *http.Server
	tr   *http.Transport
	base string
	done chan error // Serve's return, once the listener closes
	once sync.Once
}

func startHarness(cfg serve.Config) (*harness, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		tr:   &http.Transport{MaxIdleConnsPerHost: 8},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, drains the daemon and waits for the serve
// goroutine to return.  Idempotent.
func (h *harness) close() {
	h.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Every client has its answer by now; a drain that hit the
		// deadline would change nothing the run reports.
		_ = h.hs.Shutdown(ctx)
		_ = h.srv.Shutdown(ctx)
		h.tr.CloseIdleConnections()
		<-h.done
	})
}

// client returns a serve.Client that never retries: a refused request
// counts as failed instead of being hidden by backoff.
func (h *harness) client() *serve.Client {
	c := serve.NewClient(h.base, &http.Client{Transport: h.tr})
	c.MaxRetries = 0
	return c
}

// event is one request as the client saw it.
type event struct {
	req    *request
	setup  bool
	target float64
	lat    float64 // ms
	failed bool
	err    error
	resp   *serve.QueryResponse
	bytes  int
}

// sessionLog is one session's full served history, in order.
type sessionLog struct {
	id, circuit string
	dmin        float64
	events      []event
	memSetup    int64
}

// serveRun is the raw record of one serve workload run.
type serveRun struct {
	plan      servePlan
	setup     []float64 // seconds per set-up repetition
	submitMS  []float64
	logs      []*sessionLog
	wallMS    float64 // wall time of the client phase
	allocMB   float64
	gcs       uint64
	memBytes  int64 // /stats mem_bytes after the run
	memEnd    map[string]int64
	attempted int
	failed    int
	areaRatio []float64
	vsTilos   []float64
}

// runServe runs a serve workload: set-ups (server start, submits, each
// session's first cold query), the closed-loop clients on one of them,
// then the independent check of every answer.
func runServe(plan servePlan, seed int64, tr *tracer, errs *errLog) (*serveRun, error) {
	infos := make([]ckInfo, len(plan.circuits))
	for i, name := range plan.circuits {
		var err error
		if infos[i], err = circuitInfo(name); err != nil {
			return nil, err
		}
	}
	reqs := make([][]request, plan.clients)
	for cl := range reqs {
		reqs[cl] = planClient(plan, infos, rand.New(rand.NewSource(seed*7919+int64(cl))))
	}

	ctx := context.Background()
	run := &serveRun{plan: plan}
	var h *harness
	defer func() {
		if h != nil {
			h.close()
		}
	}()
	// Set-up repeats: the first half before the measured phase (the
	// last of them serves it), the rest after it, so the median spans
	// the run rather than one moment of it.
	var logs [][]*sessionLog
	before := (plan.setupReps + 1) / 2
	for rep := 0; rep < before; rep++ {
		if h != nil {
			h.close()
		}
		var err error
		if h, logs, err = run.setUp(ctx); err != nil {
			return nil, err
		}
	}
	c := h.client()
	for _, cl := range logs {
		for _, sl := range cl {
			info, err := c.Info(ctx, sl.id)
			if err != nil {
				return nil, err
			}
			sl.memSetup = info.MemBytes
		}
	}

	clients := make([]*serve.Client, plan.clients)
	for cl := range clients {
		clients[cl] = h.client()
	}
	mem := readMem()
	t0 := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < plan.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			runClient(ctx, clients[cl], logs[cl], reqs[cl], tr, cl)
		}(cl)
	}
	wg.Wait()
	run.wallMS = ms(time.Since(t0))
	run.allocMB, run.gcs = mem.since()

	st, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	run.memBytes = st.MemBytes
	run.memEnd = map[string]int64{}
	for _, cl := range logs {
		for _, sl := range cl {
			info, err := c.Info(ctx, sl.id)
			if err != nil {
				return nil, err
			}
			run.memEnd[sl.id] = info.MemBytes
			run.logs = append(run.logs, sl)
		}
	}
	h.close()
	for rep := before; rep < plan.setupReps; rep++ {
		extra, _, err := run.setUp(ctx)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	run.verify(errs)
	return run, nil
}

// setUp is one timed set-up: a fresh server, every session submitted
// and its first (cold) query answered.
func (run *serveRun) setUp(ctx context.Context) (*harness, [][]*sessionLog, error) {
	plan := run.plan
	t0 := time.Now()
	h, err := startHarness(serveConfig(plan.eco))
	if err != nil {
		return nil, nil, err
	}
	c := h.client()
	logs := make([][]*sessionLog, plan.clients)
	for cl := range logs {
		for _, name := range plan.circuits {
			sl := &sessionLog{id: fmt.Sprintf("c%d-%s", cl, name), circuit: name}
			ts := time.Now()
			sub, err := c.Submit(ctx, &serve.SubmitRequest{ID: sl.id, Circuit: name})
			if err != nil {
				h.close()
				return nil, nil, fmt.Errorf("submit %s: %w", sl.id, err)
			}
			run.submitMS = append(run.submitMS, ms(time.Since(ts)))
			sl.dmin = sub.MinDelayPS
			ev := doQuery(ctx, c, sl, &request{frac: firstFrac}, nil, 0)
			ev.setup = true
			if ev.failed {
				h.close()
				return nil, nil, fmt.Errorf("first query on %s: %w", sl.id, ev.err)
			}
			sl.events = append(sl.events, ev)
			logs[cl] = append(logs[cl], sl)
		}
	}
	run.setup = append(run.setup, time.Since(t0).Seconds())
	return h, logs, nil
}

func doQuery(ctx context.Context, c *serve.Client, sl *sessionLog, r *request, tr *tracer, op int) event {
	ev := event{req: r, target: r.frac * sl.dmin}
	sp := tr.begin("serve.query", 0, op)
	t0 := time.Now()
	resp, err := c.Query(ctx, sl.id, &serve.QueryRequest{TargetPS: ev.target, AreaWeights: r.weights, WantSizes: true})
	ev.lat = ms(time.Since(t0))
	tr.end(sp)
	if err == nil && resp.Error != nil {
		err = errors.New(resp.Error.Message)
	}
	if err == nil && resp.Partial {
		err = errors.New("partial answer")
	}
	if err != nil {
		ev.failed, ev.err = true, err
		return ev
	}
	ev.resp = resp
	if tr != nil {
		ev.bytes = respBytes(resp)
	}
	return ev
}

// runClient is one closed-loop client: each request goes out only
// after the previous answer came back.
func runClient(ctx context.Context, c *serve.Client, sess []*sessionLog, reqs []request, tr *tracer, cl int) {
	for i := range reqs {
		r := &reqs[i]
		sl := sess[r.sess]
		op := cl*1_000_000 + i + 1
		if r.edits == nil {
			sl.events = append(sl.events, doQuery(ctx, c, sl, r, tr, op))
			continue
		}
		sp := tr.begin("serve.edit", 0, op)
		t0 := time.Now()
		_, err := c.Edit(ctx, sl.id, &serve.EditRequest{Edits: r.edits})
		ev := event{req: r, lat: ms(time.Since(t0)), failed: err != nil, err: err}
		tr.end(sp)
		sl.events = append(sl.events, ev)
	}
}

// tilosEvery picks the deterministic subset of answers that also get a
// TILOS reference sizing (area_vs_tilos).
const tilosEvery = 8

// verify checks every answer against the benchmark's own replay of the
// session's netlist, outside the timed region.
func (run *serveRun) verify(errs *errLog) {
	m := model()
	for _, sl := range run.logs {
		ns, err := newNetState(sl.circuit)
		if err != nil {
			run.failed++
			errs.add("%s: %v", sl.id, err)
			continue
		}
		nq := 0
		for i := range sl.events {
			ev := &sl.events[i]
			run.attempted++
			if ev.req.edits != nil {
				if ev.failed {
					run.failed++
					errs.add("%s: edit %d: %v", sl.id, i, ev.err)
				} else if err := ns.applyEdits(ev.req.edits); err != nil {
					run.failed++
					errs.add("%s: %v", sl.id, err)
				}
				continue
			}
			ns.setWeights(ev.req.weights)
			if ev.failed {
				run.failed++
				errs.add("%s: query %d at %.1f ps: %v", sl.id, i, ev.target, ev.err)
				continue
			}
			p, err := ns.problem(m)
			if err != nil {
				run.failed++
				errs.add("%s: rebuild: %v", sl.id, err)
				continue
			}
			w := ns.areaWeights(p)
			minArea, err := check(p, w, answer{target: ev.target, area: ev.resp.Area, sizes: ev.resp.Sizes})
			if err != nil {
				ev.failed = true
				run.failed++
				errs.add("%s: answer %d: %v", sl.id, i, err)
				continue
			}
			if ev.setup {
				continue
			}
			run.areaRatio = append(run.areaRatio, ev.resp.Area/minArea)
			if nq++; nq%tilosEvery == 1 {
				if a, ok := tilosArea(ns, w, ev.target); ok {
					run.vsTilos = append(run.vsTilos, ev.resp.Area/a)
				}
			}
		}
	}
}

// latencies returns the measured query latencies (all sessions), the
// per-session medians, the edit latencies and the latencies of queries
// that carried what-if weights.
func (run *serveRun) latencies() (q, perSess, edits, whatIf []float64) {
	for _, sl := range run.logs {
		var mine []float64
		for _, ev := range sl.events {
			if ev.setup || ev.failed {
				continue
			}
			switch {
			case ev.req.edits != nil:
				edits = append(edits, ev.lat)
			default:
				q = append(q, ev.lat)
				mine = append(mine, ev.lat)
				if ev.req.weights != nil {
					whatIf = append(whatIf, ev.lat)
				}
			}
		}
		perSess = append(perSess, median(mine))
	}
	return
}

// modes summarizes the measured query latencies by the start point
// that answered them (warm, cone, tilos) — how the percentiles sit
// against the latency modes.
func (run *serveRun) modes() string {
	by := map[string][]float64{}
	n := 0
	for _, sl := range run.logs {
		for _, ev := range sl.events {
			if ev.setup || ev.failed || ev.req.edits != nil {
				continue
			}
			by[ev.resp.Seed] = append(by[ev.resp.Seed], ev.lat)
			n++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d queries;", n)
	for _, k := range []string{"cone", "warm", "tilos"} {
		v := by[k]
		if len(v) == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s %.1f%% [p1 %.2f, p50 %.2f, p99 %.2f ms];", k, 100*float64(len(v))/float64(n),
			quantile(v, 0.01), median(v), quantile(v, 0.99))
	}
	return b.String()
}

// metrics maps a serve run onto the end-to-end metric set.  The sweep
// has no netlist edits; its state-changing requests are the what-if
// queries (sticky area weights), so edit_ms_p50 reports those there.
func (run *serveRun) metrics(out metricSet) {
	q, perSess, edits, whatIf := run.latencies()
	ops := len(q) + len(edits)
	out.set("setup_s", "s", median(run.setup))
	out.set("ops_per_s", "1/s", float64(ops)/(run.wallMS/1e3))
	out.set("size_ms_geomean", "ms", geomean(perSess))
	out.set("query_ms_p50", "ms", median(q))
	out.set("query_ms_p99", "ms", quantile(q, 0.99))
	if run.plan.eco {
		out.set("edit_ms_p50", "ms", median(edits))
	} else {
		out.set("edit_ms_p50", "ms", median(whatIf))
	}
	out.set("area_ratio", "ratio", geomean(run.areaRatio))
	out.set("area_vs_tilos", "ratio", geomean(run.vsTilos))
	out.set("alloc_mb_per_op", "MB", run.allocMB/float64(ops))
	out.set("resident_mb", "MB", float64(run.memBytes)/1e6)
}

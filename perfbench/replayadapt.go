package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"switchqnet/internal/adapt"
	"switchqnet/internal/comm"
	"switchqnet/internal/core"
	"switchqnet/internal/epr"
	"switchqnet/internal/experiments"
	"switchqnet/internal/faults"
	"switchqnet/internal/frontend"
	"switchqnet/internal/hw"
	"switchqnet/internal/runtime"
	"switchqnet/internal/sim"
	"switchqnet/internal/topology"
)

// replay-adapt is the library's closed loop with obs off, as `qdcbench
// -exp adapt` runs it: fault-injected replay on one pooled worker,
// telemetry folds and component-granular recompiles until the plan
// converges, and a degraded recompile after a mid-run link death.
// runtime, faults and adapt do the work; frontend and server are not
// reached, and core only works through the recompiler.

// raCell is one compiled instance the loop runs on.
type raCell struct {
	label   string
	arch    *topology.Arch
	demands []epr.Demand
	hwp     hw.Params
	// killEdge is a spare uplink whose death exercises the partial
	// recompile; -1 when the instance has none.
	killEdge int
}

// raPaperCells are the paper benchmarks the loop adapts, at 2-4 racks.
var raPaperCells = []struct {
	bench             string
	racks, dataQubits int
}{
	{"mct", 4, 16},
	{"qft", 4, 16},
	{"grover", 2, 12},
	{"rca", 3, 12},
}

const (
	// raTrials is the replay trials per schedule (the adapt
	// experiment's default).
	raTrials = 20
	// raMaxRounds caps the fold-recompile-replay rounds of one visit.
	raMaxRounds = 3
	// raTailPct is replay-adapt's tail percentile over adapt rounds,
	// taken per visit: the 16-rack scenario's rounds are ~10x the
	// paper cells', so over the pooled rounds p90 would sit at the edge
	// of that class and jump with how many rounds the seed's plans take.
	raTailPct = 90
)

// raProfiles are the fault profiles every cell is replayed under.
var raProfiles = []string{"default", "harsh"}

// spareUplink returns the uplink edge of a demand-free QPU in a rack
// touched by at least one but not every component: an edge whose death
// exercises the partial recompile without making any demand
// unsatisfiable (the rule `qdcbench -exp adapt` uses).
func spareUplink(arch *topology.Arch, demands []epr.Demand, comps []core.Component) int {
	if len(comps) < 2 {
		return -1
	}
	rackComps := make([]int, arch.Racks)
	for _, c := range comps {
		for _, r := range c.Racks {
			rackComps[r]++
		}
	}
	used := make([]bool, arch.NumQPUs())
	for _, d := range demands {
		used[d.A], used[d.B] = true, true
	}
	n := arch.Net
	for eid, e := range n.Edges {
		var nd topology.Node
		switch {
		case n.Nodes[e.A].Kind == topology.KindQPU:
			nd = n.Nodes[e.A]
		case n.Nodes[e.B].Kind == topology.KindQPU:
			nd = n.Nodes[e.B]
		default:
			continue
		}
		if !used[arch.QPUID(nd.Rack, nd.Index)] && rackComps[nd.Rack] >= 1 && rackComps[nd.Rack] < len(comps) {
			return eid
		}
	}
	return -1
}

// raSetup compiles every cell: the paper benchmarks through the
// frontend and the seeded 16-rack CLOS scenario, then builds each
// cell's recompiler once (the compile every visit starts from) and
// replays its static schedule once untimed.
func raSetup(seed uint64) ([]raCell, error) {
	fc := frontend.New()
	var cells []raCell
	for _, pc := range raPaperCells {
		arch, err := topology.New(topology.Config{
			Topology: "clos", Racks: pc.racks, QPUsPerRack: 4,
			DataQubits: pc.dataQubits, BufferSize: (pc.dataQubits + 1) / 3, CommQubits: 2,
		})
		if err != nil {
			return nil, err
		}
		demands, err := fc.Demands(pc.bench, arch, comm.DefaultOptions())
		if err != nil {
			return nil, err
		}
		cells = append(cells, raCell{label: fmt.Sprintf("%s-%dr", pc.bench, pc.racks),
			arch: arch, demands: demands, hwp: hw.Default()})
	}
	sc := experiments.ScaleScenario("clos", 16, seed)
	arch, err := sc.Arch()
	if err != nil {
		return nil, err
	}
	cells = append(cells, raCell{label: "scenario-" + sc.Label(), arch: arch,
		demands: sc.Demands(arch), hwp: sc.Params()})
	fcfg, err := faults.Profile("default")
	if err != nil {
		return nil, err
	}
	pool := runtime.NewPool()
	for i := range cells {
		c := &cells[i]
		rc, err := adapt.NewRecompiler(c.demands, c.arch, c.hwp, core.DefaultOptions(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		c.killEdge = spareUplink(c.arch, c.demands, rc.Components())
		pool.RunTrialsProfiled(rc.Result(), c.arch, fcfg, runtime.DefaultPolicy(), seed, raTrials, 1, c.hwp, nil)
	}
	if cells[len(cells)-1].killEdge < 0 {
		return nil, fmt.Errorf("%s has no spare uplink to kill", cells[len(cells)-1].label)
	}
	return cells, nil
}

// raVisit is one (cell, fault profile) pass through the closed loop.
type raVisit struct {
	cell    int
	profile string
}

// raVisitResult is what one visit measured and produced.
type raVisitResult struct {
	rounds    []float64 // fold + recompile + replay, ms
	replayMS  float64   // time inside replay calls
	trials    int
	static    *runtime.Stats
	converged *runtime.Stats
	compStats adapt.Stats // recompiler work after the initial compile
	replays   []*runtime.Stats
	layer     *layerSet // per-call times (traced visits only)
}

// planEqual reports whether two plans compile the same schedule.
func planEqual(a, b adapt.Plan) bool {
	return a.Params == b.Params && reflect.DeepEqual(a.Profile, b.Profile)
}

// visit runs one closed-loop pass: a fresh recompiler (untimed), the
// static replay, fold/recompile/replay rounds until the telemetry fold
// reproduces the current plan (at most raMaxRounds), and for a cell
// with a spare uplink, the link's death and the degraded replay. Every
// compiled schedule is validated, outside the timed intervals.
func visit(c raCell, profile string, seed uint64, pool *runtime.Pool, traced bool) (*raVisitResult, error) {
	fcfg, err := faults.Profile(profile)
	if err != nil {
		return nil, err
	}
	rc, err := adapt.NewRecompiler(c.demands, c.arch, c.hwp, core.DefaultOptions(), nil)
	if err != nil {
		return nil, err
	}
	out := &raVisitResult{}
	if traced {
		out.layer = newLayerSet()
	}
	note := func(k string, v float64) {
		if traced {
			out.layer.add(k, v)
		}
	}
	validate := func(what string) error {
		if err := sim.Validate(rc.Result(), c.arch, rc.Result().Params).Err(); err != nil {
			return fmt.Errorf("%s schedule: %w", what, err)
		}
		return nil
	}
	base := rc.Stats()
	replay := func() (*runtime.Stats, *runtime.Profile, float64, error) {
		res := rc.Result()
		if traced {
			d, _, _ := call(false, func() error { runtime.Prepare(res, c.arch); return nil })
			note("runtime.prepare_ms", d)
		}
		var (
			st   *runtime.Stats
			prof *runtime.Profile
		)
		d, mb, _ := call(traced, func() error {
			st, prof = pool.RunTrialsProfiled(res, c.arch, fcfg, runtime.DefaultPolicy(), seed, raTrials, 1, c.hwp, nil)
			return nil
		})
		out.replayMS += d
		out.trials += raTrials
		out.replays = append(out.replays, st)
		note("runtime.alloc_kb", mb*1024)
		if len(st.Trials) != raTrials || st.P95 <= 0 {
			return nil, nil, 0, fmt.Errorf("replay returned %d trials, p95 %d", len(st.Trials), st.P95)
		}
		return st, prof, d, nil
	}
	if err := validate("static"); err != nil {
		return nil, err
	}
	st, prof, _, err := replay()
	if err != nil {
		return nil, err
	}
	out.static, out.converged = st, st
	fo := adapt.DefaultFoldOptions()
	for r := 1; r <= raMaxRounds; r++ {
		t0 := time.Now()
		var plan adapt.Plan
		foldMS, _, _ := call(false, func() error { plan = adapt.Fold(prof, c.hwp, fo); return nil })
		if planEqual(plan, rc.Plan()) {
			break // converged: a recompile would reproduce the schedule
		}
		recompMS, _, err := call(false, func() error { return rc.ApplyProfile(prof, fo) })
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		var replayMS float64
		if st, prof, replayMS, err = replay(); err != nil {
			return nil, err
		}
		roundMS := ms(time.Since(t0))
		out.rounds = append(out.rounds, roundMS)
		out.converged = st
		note("adapt.fold_ms", foldMS)
		note("adapt.recompile_ms", recompMS)
		note("round.replay_ms", replayMS)
		note("request_ms", roundMS)
		if err := validate(fmt.Sprintf("round %d", r)); err != nil {
			return nil, err
		}
	}
	if c.killEdge >= 0 {
		d, _, err := call(false, func() error { return rc.KillEdge(c.killEdge) })
		if err != nil {
			return nil, fmt.Errorf("kill edge %d: %w", c.killEdge, err)
		}
		note("adapt.degraded_ms", d)
		if err := validate("degraded"); err != nil {
			return nil, err
		}
		if _, _, _, err := replay(); err != nil {
			return nil, err
		}
	}
	s := rc.Stats()
	out.compStats = adapt.Stats{
		ComponentCompiles: s.ComponentCompiles - base.ComponentCompiles,
		WarmHits:          s.WarmHits - base.WarmHits,
	}
	return out, nil
}

// runReplayAdapt measures replay-adapt for cfg.seconds, in whole passes
// over every (cell, profile) pair in a seeded order per pass. The
// schedule-quality and count metrics are taken over the first pass, so
// they repeat exactly at one seed however fast the host is.
func runReplayAdapt(cfg config) (*outcome, error) {
	cells, setups, err := timeSetups(func() ([]raCell, error) { return raSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	var visits []raVisit
	for ci := range cells {
		for _, p := range raProfiles {
			visits = append(visits, raVisit{ci, p})
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xADA7))
	pool := runtime.NewPool()
	out := &outcome{setups: setups}
	var (
		overhead         []float64
		replayMS         float64
		trials, rounds   int
		gains, slowdowns []float64
		first            = newLayerSet()
		layers           = newLayerSet()
		compiles, warm   float64
	)
	// byVisit groups round times by visit, so that each (cell, profile)
	// pair weighs the same in request_gm_ms and request_tail_ms however
	// many rounds its plan needs to converge at this seed.
	byVisit := map[raVisit][]float64{}
	g0 := readGC()
	start := time.Now()
	var order []raVisit
	for i := 0; morePasses(i, len(visits), start, cfg.measure()); i++ {
		if i%len(visits) == 0 {
			order = append(order[:0], visits...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		v := order[i%len(visits)]
		c := cells[v.cell]
		out.attempted++
		res, tres, err := runPair(cfg.trace, i, func(traced bool) (*raVisitResult, error) {
			return visit(c, v.profile, cfg.seed, pool, traced)
		})
		if err != nil {
			out.fail(fmt.Errorf("%s/%s: %w", c.label, v.profile, err))
			continue
		}
		replayMS += res.replayMS
		trials += res.trials
		rounds += len(res.rounds)
		byVisit[v] = append(byVisit[v], res.rounds...)
		if i < len(visits) {
			gains = append(gains, float64(res.static.P95)/float64(res.converged.P95))
			slowdowns = append(slowdowns, float64(res.static.P95)/float64(res.static.Compiled))
			first.add("adapt.rounds", float64(len(res.rounds)))
			compiles += float64(res.compStats.ComponentCompiles)
			warm += float64(res.compStats.WarmHits)
			for _, st := range res.replays {
				first.add("runtime.retries_per_trial", st.MeanRetries)
				first.add("runtime.reroutes_per_trial", st.MeanReroutes)
				first.add("runtime.rescheduled_per_trial", st.MeanRescheduled)
				first.add("runtime.aborted_share", float64(st.TotalAborted)/float64(len(st.Trials)*len(c.demands)))
			}
		}
		if tres == nil {
			continue
		}
		if len(res.rounds) > 0 {
			overhead = append(overhead, tres.layer.sum["request_ms"]/sum(res.rounds))
		}
		layers.merge(tres.layer)
		layers.add("runtime.trial_ms", tres.replayMS/float64(tres.trials))
	}
	g1 := readGC()
	ok := out.attempted - out.failed
	var (
		visitGMs    []float64
		visitRounds [][]float64
	)
	for _, v := range visits {
		if rs := byVisit[v]; len(rs) > 0 {
			visitGMs = append(visitGMs, geomean(rs))
			visitRounds = append(visitRounds, rs)
		}
	}
	tl := classTail("request_tail_ms", visitRounds, raTailPct, classMinBeyond)
	out.tails = []tail{tl}
	out.endToEnd = map[string]float64{
		"setup_s":          median(append([]float64(nil), setups...)),
		"request_gm_ms":    geomean(visitGMs),
		"request_tail_ms":  tl.Value,
		"throughput_per_s": float64(trials) / (replayMS / 1000),
		"peak_rss_mb":      peakRSSMB(),
		"ok_share":         float64(ok) / float64(out.attempted),
	}
	if !cfg.trace {
		return out, nil
	}
	out.layers = zeroLayers()
	for _, k := range []string{"runtime.prepare_ms", "runtime.trial_ms", "adapt.fold_ms",
		"adapt.recompile_ms", "adapt.degraded_ms"} {
		out.layers[k] = layers.avg(k)
	}
	out.layers["runtime.alloc_kb_per_trial"] = layers.avg("runtime.alloc_kb") / raTrials
	for _, k := range []string{"runtime.retries_per_trial", "runtime.reroutes_per_trial",
		"runtime.rescheduled_per_trial", "runtime.aborted_share", "adapt.rounds"} {
		out.layers[k] = first.avg(k)
	}
	out.layers["core.component_compiles"] = compiles / float64(len(visits))
	if compiles+warm > 0 {
		out.layers["adapt.warm_hit_share"] = warm / (compiles + warm)
	}
	out.layers["adapt.p95_gain_x"] = geomean(gains)
	out.layers["runtime.realized_slowdown_x"] = geomean(slowdowns)
	out.layers["request.unattributed_share"] = unattributed(layers,
		[]string{"adapt.fold_ms", "adapt.recompile_ms", "round.replay_ms"})
	out.layers["trace_overhead_pct"] = 100 * (geomean(overhead) - 1)
	for k, v := range goMetrics(g0, g1, max(rounds, 1)) {
		out.layers[k] = v
	}
	return out, nil
}

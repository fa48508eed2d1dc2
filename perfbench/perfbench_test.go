package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"

	"switchqnet/internal/server"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric tables in step
// with the BENCHMARK.json the benchmark is run against.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json has %s (%s)",
					c.what, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{0.1, 1000}, 10},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Scaling every sample scales the geometric mean by the same factor.
	xs := []float64{3, 7, 11, 40}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.25 * x
	}
	if r := geomean(ys) / geomean(xs); math.Abs(r-1.25) > 1e-12 {
		t.Errorf("geomean scaling ratio = %v, want 1.25", r)
	}
}

// TestTailPercentile checks the tail rule: the workload's percentile
// when the run leaves at least ten samples beyond it, lower otherwise,
// never below the median, with the value from the repository's
// nearest-rank percentile.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want, got int }{
		{1000, 90, 90},
		{100, 90, 90}, // rank 90, ten samples beyond
		{99, 90, 89},  // p90 is rank 90, nine beyond
		{100, 95, 90},
		{20, 90, 50},
		{5, 90, 50},
	} {
		if p := tailPercentile(c.n, c.want, 10); p != c.got {
			t.Errorf("tailPercentile(%d, %d) = %d, want %d", c.n, c.want, p, c.got)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // reversed: tailOf sorts
	}
	tl := tailOf("x", xs, 95)
	if tl.Percentile != 95 || tl.Value != 190 || tl.Samples != 200 || tl.Beyond != 10 {
		t.Errorf("tailOf = %+v, want p95 = 190 with 10 of 200 beyond", tl)
	}
}

// TestClassTail checks the per-class tail: the geometric mean of each
// class's nearest-rank percentile, empty classes skipped, and the
// percentile capped by the smallest class.
func TestClassTail(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 50)
	for i := range a {
		a[i] = float64(100 - i) // reversed: classTail sorts
	}
	for i := range b {
		b[i] = 10 * float64(i+1)
	}
	tl := classTail("x", [][]float64{a, nil, b}, 90, 2)
	// p90 of 1..100 is 90; of 10..500 it is rank 45, 450.
	if want := math.Sqrt(90 * 450); tl.Percentile != 90 || math.Abs(tl.Value-want) > 1e-9 ||
		tl.Classes != 2 || tl.MinClass != 50 || tl.Samples != 150 || tl.Beyond != 5 {
		t.Errorf("classTail = %+v, want p90 = %v over 2 classes", tl, want)
	}
	// A ten-sample class cannot keep two samples beyond p90 (rank 9),
	// so every class drops to p80.
	tl = classTail("x", [][]float64{a, b[:10]}, 90, 2)
	if tl.Percentile != 80 || math.Abs(tl.Value-80) > 1e-9 || tl.Beyond != 2 {
		t.Errorf("classTail with a small class = %+v, want p80 = 80", tl)
	}
	// The pooled p90 of a slow class that is 10% of the requests sits
	// on the class edge; the per-class tail does not move with the mix.
	fast := make([]float64, 90)
	slow := make([]float64, 10)
	for i := range fast {
		fast[i] = 1
	}
	for i := range slow {
		slow[i] = 100
	}
	if v := classTail("x", [][]float64{fast, slow}, 90, 0).Value; math.Abs(v-10) > 1e-9 {
		t.Errorf("classTail of a 90/10 mix = %v, want 10", v)
	}
	if v := classTail("x", [][]float64{fast[:80], slow}, 90, 0).Value; math.Abs(v-10) > 1e-9 {
		t.Errorf("classTail of an 80/10 mix = %v, want 10", v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// stratum returns which third of the data-qubit range n falls in, by
// coldDeck's boundaries.
func stratum(n int) int {
	span, k := coldMaxData-coldMinData+1, len(coldTopos)
	s := 0
	for s+1 < k && n >= coldMinData+(s+1)*span/k {
		s++
	}
	return s
}

// TestColdDeck checks the compile-cold request generator: one deck
// covers every class once with data-qubit counts in range, one seed
// always generates the same requests and two seeds do not.
func TestColdDeck(t *testing.T) {
	gen := func(seed uint64) [][]compileReq {
		rng := rand.New(rand.NewPCG(seed, 0xC0DE))
		return [][]compileReq{coldDeck(rng), coldDeck(rng)}
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 generated the same requests")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("consecutive decks are identical")
	}
	for _, deck := range a {
		if len(deck) != coldClasses {
			t.Fatalf("deck has %d requests, want %d", len(deck), coldClasses)
		}
		seen := map[compileReq]bool{}
		strata := map[[2]any][]int{}
		for _, r := range deck {
			if r.dataQubits < coldMinData || r.dataQubits > coldMaxData {
				t.Errorf("%+v: data qubits out of range", r)
			}
			class := r
			class.dataQubits = 0
			if seen[class] {
				t.Errorf("class %+v drawn twice in one deck", class)
			}
			seen[class] = true
			k := [2]any{r.bench, r.racks}
			strata[k] = append(strata[k], stratum(r.dataQubits))
		}
		for k, s := range strata {
			if len(s) != len(coldTopos) || s[0] == s[1] || s[1] == s[2] || s[0] == s[2] {
				t.Errorf("%v: topologies draw from strata %v, want one each", k, s)
			}
		}
	}
}

// TestDrawJob checks the serve-warm job generator: deterministic per
// seed, different across seeds, and close to the 60/30/10 mix.
func TestDrawJob(t *testing.T) {
	gen := func(seed uint64) []swJob {
		rng := rand.New(rand.NewPCG(seed, 1))
		js := make([]swJob, 5000)
		for i := range js {
			js[i] = drawJob(rng)
		}
		return js
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two job streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same jobs")
	}
	kinds := map[string]int{}
	for _, j := range a {
		kinds[j.kind]++
		if (j.kind == server.KindCompile) != (j.seed == 0) {
			t.Errorf("%+v: only replay jobs carry a seed", j)
		}
	}
	for kind, want := range map[string]float64{server.KindCompile: 0.6, server.KindExecute: 0.3, server.KindAdapt: 0.1} {
		if got := float64(kinds[kind]) / float64(len(a)); math.Abs(got-want) > 0.03 {
			t.Errorf("%s share = %.3f, want about %.1f", kind, got, want)
		}
	}
}

func TestParseProm(t *testing.T) {
	s := parseProm([]byte(`# HELP x help
# TYPE switchqnet_frontend_requests_total counter
switchqnet_frontend_requests_total{outcome="hit",stage="circuit"} 7
switchqnet_frontend_requests_total{outcome="miss",stage="circuit"} 2
switchqnet_frontend_requests_total{outcome="hit",stage="demands"} 5
switchqnet_exec_total 40
`))
	if got := s.sum("switchqnet_frontend_requests_total"); got != 14 {
		t.Errorf("all requests = %v, want 14", got)
	}
	if got := s.sum("switchqnet_frontend_requests_total", `outcome="hit"`); got != 12 {
		t.Errorf("hits = %v, want 12", got)
	}
	if got := s.sum("switchqnet_exec_total"); got != 40 {
		t.Errorf("exec total = %v, want 40", got)
	}
}

// workloadLayers are the per-layer metrics each workload must measure
// as non-zero in a traced run.
var workloadLayers = map[string][]string{
	"compile-cold": {"circuit.gen_ms", "circuit.gates", "circuit.alloc_mb", "place.blocks_ms",
		"comm.extract_ms", "comm.demands", "comm.alloc_mb", "core.compile_ms", "core.baseline_ms",
		"core.gens", "core.events", "core.alloc_mb", "core.makespan_improvement_x",
		"core.epr_overhead_pct", "trace.write_ms", "trace.bytes", "frontend.share",
		"frontend.hit_share", "go.alloc_mb"},
	"serve-warm": {"server.admit_ms", "server.run_ms.compile", "server.run_ms.execute",
		"server.run_ms.adapt", "server.result_ms", "server.result_bytes", "server.overhead_ms",
		"frontend.hit_share", "obs.scrape_ms", "obs.scrape_bytes", "runtime.retries_per_trial",
		"go.alloc_mb"},
	"replay-adapt": {"runtime.prepare_ms", "runtime.trial_ms", "runtime.retries_per_trial",
		"runtime.rescheduled_per_trial", "runtime.alloc_kb_per_trial",
		"runtime.realized_slowdown_x", "adapt.fold_ms", "adapt.recompile_ms", "adapt.degraded_ms",
		"adapt.rounds", "core.component_compiles", "adapt.p95_gain_x", "go.alloc_mb"},
}

// TestWorkloadsTiny runs every workload for a two-second window, traced
// (which measures untraced requests too): every output check must
// pass and every declared metric must be reported.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			out, err := run(config{seed: 3, seconds: 2, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.endToEnd["ok_share"] != 1 {
				t.Fatalf("%d of %d requests failed: %v", out.failed, out.attempted, out.failures)
			}
			if _, err := pick(endToEnd, out.endToEnd); err != nil {
				t.Error(err)
			}
			if _, err := pick(perLayer, out.layers); err != nil {
				t.Error(err)
			}
			for _, d := range endToEnd {
				if v := out.endToEnd[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			for _, k := range workloadLayers[name] {
				if v := out.layers[k]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", k, v)
				}
			}
		})
	}
}

// TestMorePasses checks that runs cover whole passes: the first pass
// always completes, a pass in progress always finishes, and a new pass
// starts only while the window is open.
func TestMorePasses(t *testing.T) {
	closed := time.Now().Add(-time.Hour)
	open := time.Now()
	for _, c := range []struct {
		i     int
		start time.Time
		want  bool
	}{
		{0, closed, true},  // the first pass runs even past the window
		{3, closed, true},  // a pass in progress finishes
		{4, closed, false}, // no new pass once the window is closed
		{4, open, true},    // a new pass while it is open
	} {
		if got := morePasses(c.i, 4, c.start, time.Minute); got != c.want {
			t.Errorf("morePasses(%d, window open=%v) = %v, want %v", c.i, c.start == open, got, c.want)
		}
	}
}

// TestRunPair checks the traced-run pairing: untraced runs once, traced
// runs both executions and alternates which goes first.
func TestRunPair(t *testing.T) {
	var order []bool
	f := func(traced bool) (bool, error) {
		order = append(order, traced)
		return traced, nil
	}
	if p, tr, _ := runPair(false, 1, f); p || tr || len(order) != 1 {
		t.Fatalf("untraced: plain=%v traced=%v after %v", p, tr, order)
	}
	for i, first := range []bool{false, true} {
		order = nil
		p, tr, _ := runPair(true, i, f)
		if p || !tr || len(order) != 2 || order[0] != first {
			t.Errorf("request %d: plain=%v traced=%v order %v, want traced first = %v", i, p, tr, order, first)
		}
	}
}

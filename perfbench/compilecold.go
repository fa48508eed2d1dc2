package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	goruntime "runtime"
	"time"

	"switchqnet/internal/circuit"
	"switchqnet/internal/comm"
	"switchqnet/internal/core"
	"switchqnet/internal/epr"
	"switchqnet/internal/frontend"
	"switchqnet/internal/hw"
	"switchqnet/internal/metrics"
	"switchqnet/internal/place"
	"switchqnet/internal/sim"
	"switchqnet/internal/topology"
	"switchqnet/internal/trace"
)

// compile-cold issues one-shot compile requests the way `switchqnet
// -compare` and a qdcbench cell do: each request starts from a fresh
// frontend cache and a collected heap, and runs circuit generation,
// placement, demand extraction, the SwitchQNet compile, the schedule
// JSON, then the baseline extraction and compile on the same circuit
// and placement. circuit, place, comm and core do the work; runtime,
// adapt, server and obs are not reached (obs is off, as on the CLI).

var (
	coldBenches = []string{"mct", "qft", "grover", "rca"}
	coldTopos   = []string{"clos", "spine-leaf", "fat-tree"}
	coldRacks   = []int{2, 4, 6, 8}
)

const (
	coldQPUsPerRack = 2
	coldMinData     = 12
	coldMaxData     = 30
	// coldTailPct is compile-cold's tail percentile: a run makes a few
	// hundred requests, so p90 has dozens of samples beyond it.
	coldTailPct = 90
)

// coldClasses is the number of (bench, topology, racks) classes; one
// deck of requests covers each once.
var coldClasses = len(coldBenches) * len(coldTopos) * len(coldRacks)

// compileReq is one compile-cold request.
type compileReq struct {
	bench      string
	topo       string
	racks      int
	dataQubits int
}

// coldDeck draws one deck: every (bench, topology, racks) class once,
// in a seeded order. Per-QPU data-qubit counts are stratified: the
// three topologies of each (bench, racks) pair draw from the low,
// middle and high third of [coldMinData, coldMaxData] in a seeded
// assignment. Sizes are spread out, yet every deck holds the same mix
// of small and large instances, so two seeds differ little in how much
// work they ask for.
func coldDeck(rng *rand.Rand) []compileReq {
	span := coldMaxData - coldMinData + 1
	strata := len(coldTopos)
	deck := make([]compileReq, 0, coldClasses)
	for _, b := range coldBenches {
		for _, r := range coldRacks {
			perm := rng.Perm(strata)
			for ti, t := range coldTopos {
				lo := coldMinData + perm[ti]*span/strata
				hi := coldMinData + (perm[ti]+1)*span/strata
				deck = append(deck, compileReq{bench: b, topo: t, racks: r, dataQubits: lo + rng.IntN(hi-lo)})
			}
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// archConfig is the request's architecture: the paper's 4 QPUs per
// rack and 2 communication qubits, with a buffer of a third of the data
// qubits (Table 1's ratio).
func (r compileReq) archConfig() topology.Config {
	return topology.Config{
		Topology: r.topo, Racks: r.racks, QPUsPerRack: coldQPUsPerRack,
		DataQubits: r.dataQubits, BufferSize: (r.dataQubits + 1) / 3, CommQubits: 2,
	}
}

// archKey identifies a prebuilt architecture.
type archKey struct {
	topo              string
	racks, dataQubits int
}

// buildArchs builds every architecture a compile-cold request can name.
func buildArchs() (map[archKey]*topology.Arch, error) {
	archs := map[archKey]*topology.Arch{}
	for _, t := range coldTopos {
		for _, r := range coldRacks {
			for d := coldMinData; d <= coldMaxData; d++ {
				req := compileReq{topo: t, racks: r, dataQubits: d}
				a, err := topology.New(req.archConfig())
				if err != nil {
					return nil, fmt.Errorf("arch %s/%d/%d: %w", t, r, d, err)
				}
				archs[archKey{t, r, d}] = a
			}
		}
	}
	return archs, nil
}

// coldResult is one request's outputs and, when traced, its layer times.
type coldResult struct {
	latencyMS float64
	circ      *circuit.Circuit
	demands   []epr.Demand
	ours      *core.Result
	base      *core.Result
	jsonBytes int
	cache     frontend.StageStats
	// layer holds per-call times and allocations and the request's GC
	// counters (traced requests only).
	layer map[string]float64
}

// coldLayerTimes are the layer calls a compile-cold request is made of;
// their sum is reconciled against the request's wall clock.
var coldLayerTimes = []string{"circuit.gen_ms", "place.blocks_ms", "comm.extract_ms",
	"core.compile_ms", "core.baseline_ms", "trace.write_ms"}

// compileOnce runs one request's pipeline. Untraced, only the whole
// request is timed; traced, each layer call is timed as well and the
// circuit, comm and core calls report their allocations.
func compileOnce(req compileReq, arch *topology.Arch, traced bool) (*coldResult, error) {
	cache := frontend.New()
	out := &coldResult{}
	if traced {
		out.layer = map[string]float64{}
	}
	// step runs one layer call, timing it when traced.
	step := func(layer, allocKey string, f func() error) error {
		if !traced {
			return f()
		}
		d, mb, err := call(allocKey != "", f)
		out.layer[layer] += d
		if allocKey != "" {
			out.layer[allocKey] += mb
		}
		return err
	}
	var (
		pl         place.Placement
		baseDemand []epr.Demand
		buf        bytes.Buffer
	)
	goruntime.GC()
	var g0 gcSnap
	if traced {
		g0 = readGC()
	}
	t0 := time.Now()
	err := step("circuit.gen_ms", "circuit.alloc_mb", func() (err error) {
		out.circ, err = cache.Circuit(req.bench, arch.TotalQubits())
		return err
	})
	if err == nil {
		err = step("place.blocks_ms", "", func() (err error) {
			pl, err = cache.Placement(out.circ.NumQubits, arch)
			return err
		})
	}
	if err == nil {
		err = step("comm.extract_ms", "comm.alloc_mb", func() (err error) {
			out.demands, err = cache.Demands(req.bench, arch, comm.DefaultOptions())
			return err
		})
	}
	if err == nil {
		err = step("core.compile_ms", "core.alloc_mb", func() (err error) {
			out.ours, err = core.Compile(out.demands, arch, hw.Default(), core.DefaultOptions())
			return err
		})
	}
	if err == nil {
		err = step("trace.write_ms", "", func() error { return trace.WriteJSON(&buf, out.ours) })
	}
	if err == nil {
		err = step("comm.extract_ms", "comm.alloc_mb", func() (err error) {
			baseDemand, err = cache.Demands(req.bench, arch, comm.BaselineOptions())
			return err
		})
	}
	if err == nil {
		err = step("core.baseline_ms", "core.alloc_mb", func() (err error) {
			out.base, err = core.Compile(baseDemand, arch, hw.Default(), core.BaselineOptions())
			return err
		})
	}
	out.latencyMS = ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	if traced {
		for k, v := range goMetrics(g0, readGC(), 1) {
			out.layer[k] = v
		}
	}
	out.cache = cache.Stats().Total()
	if len(pl) != out.circ.NumQubits {
		return nil, fmt.Errorf("placement covers %d of %d qubits", len(pl), out.circ.NumQubits)
	}
	out.jsonBytes = buf.Len()
	return out, nil
}

// check validates both compiled schedules against the architecture
// (the independent simulator's invariants) and the JSON export.
func (r *coldResult) check(arch *topology.Arch) error {
	if err := sim.Validate(r.ours, arch, hw.Default()).Err(); err != nil {
		return fmt.Errorf("switchqnet schedule: %w", err)
	}
	if err := sim.Validate(r.base, arch, hw.Default()).Err(); err != nil {
		return fmt.Errorf("baseline schedule: %w", err)
	}
	if r.jsonBytes == 0 || r.ours.Makespan <= 0 {
		return fmt.Errorf("empty schedule")
	}
	return nil
}

// coldSetup builds every architecture and runs one untimed pass of the
// smallest requests (every bench and topology at the smallest rack and
// qubit counts), so code paths are warm before the first timed request.
func coldSetup() (map[archKey]*topology.Arch, error) {
	archs, err := buildArchs()
	if err != nil {
		return nil, err
	}
	for _, b := range coldBenches {
		for _, t := range coldTopos {
			req := compileReq{bench: b, topo: t, racks: coldRacks[0], dataQubits: coldMinData}
			if _, err := compileOnce(req, archs[archKey{t, req.racks, req.dataQubits}], false); err != nil {
				return nil, fmt.Errorf("warm-up %+v: %w", req, err)
			}
		}
	}
	return archs, nil
}

// runCompileCold measures whole decks of compile-cold requests for
// cfg.seconds. The schedule-quality and count metrics are taken over
// the first deck, so they repeat exactly at one seed however fast the
// host is.
func runCompileCold(cfg config) (*outcome, error) {
	archs, setups, err := timeSetups(coldSetup)
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xC0DE))
	var (
		deck                  []compileReq
		plain, overhead       []float64
		gains, overheads      []float64
		firstDeck, layers     = newLayerSet(), newLayerSet()
		busyMS, hits, lookups float64
	)
	start := time.Now()
	for i := 0; morePasses(i, coldClasses, start, cfg.measure()); i++ {
		if i%coldClasses == 0 {
			deck = coldDeck(rng)
		}
		req := deck[i%coldClasses]
		arch := archs[archKey{req.topo, req.racks, req.dataQubits}]
		out.attempted++
		res, tres, err := runPair(cfg.trace, i, func(traced bool) (*coldResult, error) {
			r, err := compileOnce(req, arch, traced)
			if err == nil {
				err = r.check(arch)
			}
			return r, err
		})
		if err != nil {
			out.fail(fmt.Errorf("request %d %+v: %w", i, req, err))
			continue
		}
		busyMS += res.latencyMS
		plain = append(plain, res.latencyMS)
		if i < coldClasses {
			ours, base := metrics.Summarize(res.ours), metrics.Summarize(res.base)
			gains = append(gains, metrics.Improvement(base, ours))
			overheads = append(overheads, ours.EPROverheadPct)
			firstDeck.add("circuit.gates", float64(len(res.circ.Gates)))
			firstDeck.add("comm.demands", float64(len(res.demands)))
			firstDeck.add("core.gens", float64(len(res.ours.Gens)))
			firstDeck.add("core.retries", float64(res.ours.Retries))
			firstDeck.add("core.events", float64(res.ours.EventsProcessed))
			firstDeck.add("trace.bytes", float64(res.jsonBytes))
		}
		if tres == nil {
			continue
		}
		overhead = append(overhead, tres.latencyMS/res.latencyMS)
		layers.add("request_ms", tres.latencyMS)
		for k, v := range tres.layer {
			layers.add(k, v)
		}
		hits += float64(tres.cache.Hits)
		lookups += float64(tres.cache.Hits + tres.cache.Misses)
	}
	ok := out.attempted - out.failed
	tl := tailOf("request_tail_ms", append([]float64(nil), plain...), coldTailPct)
	out.tails = []tail{tl}
	out.endToEnd = map[string]float64{
		"setup_s":         median(append([]float64(nil), setups...)),
		"request_gm_ms":   geomean(plain),
		"request_tail_ms": tl.Value,
		// Requests per second of request time: the untimed heap
		// collection and output checks between requests do not count.
		"throughput_per_s": float64(ok) / (busyMS / 1000),
		"peak_rss_mb":      peakRSSMB(),
		"ok_share":         float64(ok) / float64(out.attempted),
	}
	if !cfg.trace {
		return out, nil
	}
	out.layers = zeroLayers()
	for _, k := range append(coldLayerTimes, "circuit.alloc_mb", "comm.alloc_mb", "core.alloc_mb",
		"go.gc_cycles", "go.gc_pause_ms", "go.alloc_mb") {
		out.layers[k] = layers.avg(k)
	}
	for _, k := range []string{"circuit.gates", "comm.demands", "core.gens", "core.retries", "core.events", "trace.bytes"} {
		out.layers[k] = firstDeck.avg(k)
	}
	out.layers["core.makespan_improvement_x"] = geomean(gains)
	out.layers["core.epr_overhead_pct"] = mean(overheads)
	out.layers["frontend.share"] = (layers.avg("circuit.gen_ms") + layers.avg("place.blocks_ms") +
		layers.avg("comm.extract_ms")) / layers.avg("request_ms")
	out.layers["frontend.hit_share"] = hits / lookups
	out.layers["request.unattributed_share"] = unattributed(layers, coldLayerTimes)
	out.layers["trace_overhead_pct"] = 100 * (geomean(overhead) - 1)
	return out, nil
}

// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time in this process and prints a run
// record plus, as its last line, the summary
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run additionally times every call into a layer's public functions
// and reports the per-layer metrics instead. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
//	go run . -workload compile-cold -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0. Each
// workload measures each of them on its own requests; see README.md
// for what a request is per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"request_gm_ms", "ms"},
	{"request_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
}

// perLayer are the metrics every workload reports with -trace 1. A
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"circuit.gen_ms", "ms"},
	{"circuit.gates", "count"},
	{"circuit.alloc_mb", "MB"},
	{"place.blocks_ms", "ms"},
	{"comm.extract_ms", "ms"},
	{"comm.demands", "count"},
	{"comm.alloc_mb", "MB"},
	{"core.compile_ms", "ms"},
	{"core.baseline_ms", "ms"},
	{"core.gens", "count"},
	{"core.retries", "count"},
	{"core.events", "count"},
	{"core.alloc_mb", "MB"},
	{"core.component_compiles", "count"},
	{"core.makespan_improvement_x", "x"},
	{"core.epr_overhead_pct", "%"},
	{"trace.write_ms", "ms"},
	{"trace.bytes", "count"},
	{"frontend.share", "share"},
	{"frontend.hit_share", "share"},
	{"server.admit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms.compile", "ms"},
	{"server.run_ms.execute", "ms"},
	{"server.run_ms.adapt", "ms"},
	{"server.result_ms", "ms"},
	{"server.result_bytes", "count"},
	{"server.overhead_ms", "ms"},
	{"server.rejected", "count"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_bytes", "count"},
	{"runtime.prepare_ms", "ms"},
	{"runtime.trial_ms", "ms"},
	{"runtime.retries_per_trial", "count"},
	{"runtime.reroutes_per_trial", "count"},
	{"runtime.rescheduled_per_trial", "count"},
	{"runtime.aborted_share", "share"},
	{"runtime.alloc_kb_per_trial", "KB"},
	{"runtime.realized_slowdown_x", "x"},
	{"adapt.fold_ms", "ms"},
	{"adapt.recompile_ms", "ms"},
	{"adapt.degraded_ms", "ms"},
	{"adapt.rounds", "count"},
	{"adapt.warm_hit_share", "share"},
	{"adapt.p95_gain_x", "x"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"request.unattributed_share", "share"},
	{"trace_overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds int
	trace   bool
}

// measure returns how long the run measures.
func (c config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload hands back: request accounting, the
// end-to-end metrics (always), the per-layer metrics (traced runs) and
// the tail figures behind the *_tail_* metrics.
type outcome struct {
	attempted, failed int
	// failures holds the first few check failures, for the record.
	failures []string
	endToEnd map[string]float64
	layers   map[string]float64
	tails    []tail
	setups   []float64
}

// fail records a request whose output failed a check.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, err.Error())
	}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"compile-cold": runCompileCold,
	"serve-warm":   runServeWarm,
	"replay-adapt": runReplayAdapt,
}

// setupReps is how many times each workload sets up; setup_s is the
// median, because a single set-up is one sample of a noisy clock.
const setupReps = 5

// timeSetups runs setup setupReps times, keeping the last result, and
// returns it with every repetition's duration in seconds.
func timeSetups[T any](setup func() (T, error)) (T, []float64, error) {
	var (
		st    T
		err   error
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		st, err = setup()
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env identifies the host and build a record was measured on.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealShare float64 `json:"steal_share"`
}

// record is the full run record, printed before the summary line. The
// end-to-end and traced runs share this schema.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Env          env                `json:"env"`
	SetupRunsS   []float64          `json:"setup_runs_s"`
	Tails        []tail             `json:"tails"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	ElapsedTotal float64            `json:"elapsed_total_s"`
}

// commit returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// pick selects defs' metrics from vals, failing on a missing one so a
// workload cannot silently drop a declared metric.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload: compile-cold, serve-warm or replay-adapt")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 times every layer call and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if err := report(*name, cfg, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report runs the workload and prints the record and the summary.
func report(name string, cfg config, run func(config) (*outcome, error)) error {
	t0 := time.Now()
	cpu0, ok0 := readCPU()
	out, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	cpu1, ok1 := readCPU()
	rec := record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: env{
			NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
			GoVersion: goruntime.Version(), Commit: commit(),
			StealShare: stealShare(cpu0, cpu1, ok0, ok1),
		},
		SetupRunsS: out.setups, Tails: out.tails,
		Attempted: out.attempted, Failed: out.failed, Failures: out.failures,
		EndToEnd: out.endToEnd, PerLayer: out.layers,
		ElapsedTotal: time.Since(t0).Seconds(),
	}
	defs, vals := endToEnd, out.endToEnd
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	metrics, err := pick(defs, vals)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s: no request was attempted", name)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(summary{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics,
	})
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"switchqnet/internal/comm"
	"switchqnet/internal/core"
	"switchqnet/internal/faults"
	"switchqnet/internal/frontend"
	"switchqnet/internal/hw"
	"switchqnet/internal/runtime"
	"switchqnet/internal/server"
	"switchqnet/internal/topology"
	"switchqnet/internal/trace"
)

// serve-warm drives an in-process switchqnetd (server.New with its
// default configuration behind httptest) with two closed-loop clients.
// Each client submits a job, waits for the SSE "done" event, and fetches
// the result. Jobs draw from a fixed working set of programs whose
// frontend artifacts are warmed during set-up, so the frontend only
// hits: a frontend speed-up must not move this workload. It is the only
// workload with obs always on (the daemon observes every job) and the
// only one where server queueing and the shared cache and registry
// locks see two concurrent workers.

// swProgram is one (bench, architecture) program of the working set.
type swProgram struct {
	bench, topo                    string
	racks, qpusPerRack, dataQubits int
}

// swPrograms is the working set: every benchmark, on all three
// fabrics, sized so that a job computes for milliseconds rather than
// microseconds and its time is mostly pipeline work, not HTTP round
// trips. The daemon retains its last 1024 results, so result size (a
// compile job's schedule JSON) sets the process's memory: grover and
// rca, whose schedules run to half a megabyte, appear once each.
var swPrograms = []swProgram{
	{"qft", "clos", 4, 4, 20},
	{"qft", "fat-tree", 4, 4, 24},
	{"qft", "spine-leaf", 6, 2, 24},
	{"qft", "clos", 4, 2, 20},
	{"mct", "clos", 8, 4, 30},
	{"mct", "spine-leaf", 8, 4, 24},
	{"grover", "clos", 2, 2, 12},
	{"rca", "clos", 2, 2, 12},
}

const (
	// swClients is the number of closed-loop clients (= connections):
	// one per core of the 2-core reference host.
	swClients = 2
	// swTrials is the replay trials of an execute or adapt job.
	swTrials = 20
	// swSeeds bounds the distinct replay seeds, so the references
	// computed after the run stay few (one per distinct request).
	swSeeds = 4
	// swTailPct is serve-warm's tail percentile, taken per job class
	// (kind x program). Over the pooled jobs it would sit at the edge of
	// the ~10% adapt jobs and jump with the seed's adapt share.
	swTailPct = 90
	// swBlock is the alternation period of a traced run: untraced and
	// traced blocks interleave so both see the same host drift.
	swBlock = 500 * time.Millisecond
	// swCountJobs is how many jobs of each client's stream the count
	// metrics are taken over: the streams are seeded and results are
	// deterministic, so the counts repeat exactly at one seed.
	swCountJobs = 200
	// swScrapeEvery is the /metrics scrape period in traced blocks.
	swScrapeEvery = 250 * time.Millisecond
)

// swJob is one job's request parameters.
type swJob struct {
	kind    string
	program int
	seed    uint64
}

// drawJob draws the next job: ~60% compile, ~30% execute (default
// faults) and ~10% adapt (one round, harsh faults).
func drawJob(rng *rand.Rand) swJob {
	j := swJob{kind: server.KindCompile, program: rng.IntN(len(swPrograms))}
	switch u := rng.IntN(10); {
	case u >= 9:
		j.kind = server.KindAdapt
	case u >= 6:
		j.kind = server.KindExecute
	}
	if j.kind != server.KindCompile {
		j.seed = 1 + uint64(rng.IntN(swSeeds))
	}
	return j
}

// body renders the job's POST /v1/jobs submission.
func (j swJob) body(client string) []byte {
	p := swPrograms[j.program]
	m := map[string]any{
		"kind": j.kind, "client": client, "bench": p.bench,
		"topology": p.topo, "racks": p.racks, "qpus_per_rack": p.qpusPerRack,
		"data_qubits": p.dataQubits, "buffer_size": (p.dataQubits + 1) / 3, "comm_qubits": 2,
	}
	switch j.kind {
	case server.KindExecute:
		m["faults"], m["trials"], m["seed"] = "default", swTrials, j.seed
	case server.KindAdapt:
		m["faults"], m["trials"], m["seed"], m["rounds"] = "harsh", swTrials, j.seed, 1
	}
	b, _ := json.Marshal(m) // a map of strings and numbers always marshals
	return b
}

// arch builds the program's architecture as the daemon does.
func (p swProgram) arch() (*topology.Arch, error) {
	return topology.New(topology.Config{
		Topology: p.topo, Racks: p.racks, QPUsPerRack: p.qpusPerRack,
		DataQubits: p.dataQubits, BufferSize: (p.dataQubits + 1) / 3, CommQubits: 2,
	})
}

// jobView is the subset of the daemon's job JSON the clients read.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// swDone is one finished job as a client saw it.
type swDone struct {
	job       swJob
	latencyMS float64
	traced    bool
	// seq is the job's position in its client's stream.
	seq      int
	admitMS  float64
	waitMS   float64
	runMS    float64
	resultMS float64
	// coveredMS is the part of the latency the server's job timestamps
	// and the result fetch account for: submit → finished, plus the
	// fetch. The rest is event delivery and client work.
	coveredMS float64
	bytes     int
	digest    [32]byte
	// rounds is the number of rounds an adapt result holds.
	rounds int
}

// client is one closed-loop load generator with its own connection.
type client struct {
	base string
	name string
	http *http.Client
}

func newClient(base, name string) *client {
	return &client{base: base, name: name, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// close releases the client's idle connection.
func (c *client) close() { c.http.CloseIdleConnections() }

// errRejected marks a submission the daemon refused (429 or 503).
type errRejected struct{ code int }

func (e errRejected) Error() string { return fmt.Sprintf("submission rejected with %d", e.code) }

// do runs one job to completion: submit, wait for the SSE done event,
// fetch the result.
func (c *client) do(j swJob) (*swDone, error) {
	d := &swDone{job: j}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(j.body(c.name)))
	if err != nil {
		return nil, err
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	d.admitMS = ms(time.Since(t0))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, errRejected{resp.StatusCode}
	case resp.StatusCode != http.StatusAccepted:
		return nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	case err != nil:
		return nil, fmt.Errorf("submit: %w", err)
	}
	if v, err = c.awaitDone(v.ID); err != nil {
		return nil, err
	}
	if v.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	t1 := time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result of %s: status %d: %v", v.ID, resp.StatusCode, err)
	}
	d.resultMS = ms(time.Since(t1))
	d.latencyMS = ms(time.Since(t0))
	d.bytes = len(body)
	d.digest = sha256.Sum256(body)
	if j.kind == server.KindAdapt {
		var doc struct {
			Rounds []json.RawMessage `json:"rounds"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("adapt result of %s: %w", v.ID, err)
		}
		d.rounds = len(doc.Rounds)
	}
	finished, err := phases(v, d)
	if err != nil {
		return nil, err
	}
	d.coveredMS = ms(finished.Sub(t0)) + d.resultMS
	return d, nil
}

// awaitDone follows the job's SSE stream to its "done" event and
// returns the final job view it carries.
func (c *client) awaitDone(id string) (jobView, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var v jobView
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return jobView{}, fmt.Errorf("done event of %s: %w", id, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return v, nil
		}
	}
	return jobView{}, fmt.Errorf("event stream of %s ended without done: %v", id, sc.Err())
}

// phases splits a finished job's server-side time into queue wait
// (submitted → started) and run (started → finished), and returns the
// finish time. The daemon runs in this process, so its timestamps and
// the client's share one clock.
func phases(v jobView, d *swDone) (time.Time, error) {
	var ts [3]time.Time
	for i, s := range []string{v.SubmittedAt, v.StartedAt, v.FinishedAt} {
		var err error
		if ts[i], err = time.Parse(time.RFC3339Nano, s); err != nil {
			return time.Time{}, fmt.Errorf("job %s timestamps: %w", v.ID, err)
		}
	}
	d.waitMS, d.runMS = ms(ts[1].Sub(ts[0])), ms(ts[2].Sub(ts[1]))
	return ts[2], nil
}

// scrape fetches /metrics, returning its size and parsed samples.
func (c *client) scrape() (promSamples, int, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return parseProm(body), len(body), nil
}

// promSamples maps an exposition series ("name{labels}") to its value.
type promSamples map[string]float64

func parseProm(b []byte) promSamples {
	out := promSamples{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds the values of every series of metric name whose labels
// include each of want (`key="value"` strings).
func (s promSamples) sum(name string, want ...string) float64 {
	total := 0.0
	for series, v := range s {
		n, labels, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		ok := true
		for _, w := range want {
			ok = ok && strings.Contains(labels, w)
		}
		if ok {
			total += v
		}
	}
	return total
}

// swState is serve-warm's set-up product: a running daemon.
type swState struct {
	srv *server.Server
	ts  *httptest.Server
}

// stop drains the daemon and closes the listener.
func (s *swState) stop() error {
	err := s.srv.Shutdown(context.Background())
	s.ts.Close()
	return err
}

// swSetup starts a daemon and makes one untimed pass over the working
// set: a compile, an execute and an adapt job per program. That warms
// the shared frontend cache with every program's artifacts and every
// worker's replay pool.
func swSetup() (*swState, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	st := &swState{srv: srv, ts: httptest.NewServer(srv.Handler())}
	c := newClient(st.ts.URL, "warmup")
	defer c.close()
	for i := range swPrograms {
		for _, kind := range []string{server.KindCompile, server.KindExecute, server.KindAdapt} {
			if _, err := c.do(swJob{kind: kind, program: i, seed: 1}); err != nil {
				st.stop()
				return nil, fmt.Errorf("warm-up %s of %+v: %w", kind, swPrograms[i], err)
			}
		}
	}
	return st, nil
}

// runServeWarm measures serve-warm for cfg.seconds.
func runServeWarm(cfg config) (*outcome, error) {
	var prev *swState
	st, setups, err := timeSetups(func() (*swState, error) {
		if prev != nil { // only the last set-up's daemon is kept
			if err := prev.stop(); err != nil {
				return nil, err
			}
		}
		s, err := swSetup()
		prev = s
		return s, err
	})
	if err != nil {
		return nil, err
	}
	defer st.stop()

	clients := make([]*client, swClients)
	for i := range clients {
		clients[i] = newClient(st.ts.URL, fmt.Sprintf("c%d", i))
		defer clients[i].close()
	}
	before, _, err := clients[0].scrape()
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		done     []*swDone
		rejected int
		failures []error
		// scrapeErr is the first failed /metrics scrape: a broken scrape
		// surface fails the run rather than counting as a job.
		scrapeErr error
		scrapes   = newLayerSet()
		wg        sync.WaitGroup
	)
	g0 := readGC()
	start := time.Now()
	tracedNow := func() bool { return cfg.trace && (time.Since(start)/swBlock)%2 == 1 }
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(ci)+1))
			var lastScrape time.Time
			for seq := 0; time.Since(start) < cfg.measure(); seq++ {
				traced := tracedNow()
				if traced && ci == 0 && time.Since(lastScrape) >= swScrapeEvery {
					t0 := time.Now()
					_, n, err := c.scrape()
					lastScrape = time.Now()
					mu.Lock()
					if err != nil && scrapeErr == nil {
						scrapeErr = fmt.Errorf("scrape: %w", err)
					}
					scrapes.add("obs.scrape_ms", ms(lastScrape.Sub(t0)))
					scrapes.add("obs.scrape_bytes", float64(n))
					mu.Unlock()
				}
				d, err := c.do(drawJob(rng))
				mu.Lock()
				switch {
				case err == nil:
					d.traced, d.seq = traced, seq
					done = append(done, d)
				case errors.As(err, new(errRejected)):
					rejected++
				default:
					failures = append(failures, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	g1 := readGC()
	after, _, err := clients[0].scrape()
	if err != nil {
		return nil, err
	}

	out := &outcome{setups: setups, attempted: len(done) + rejected + len(failures)}
	for _, err := range failures {
		out.fail(err)
	}
	for i := 0; i < rejected; i++ {
		out.fail(fmt.Errorf("submission rejected"))
	}
	for _, err := range checkServed(done) {
		out.fail(err)
	}
	ok := out.attempted - out.failed

	var plain, traced []float64
	// byClass groups the untraced latencies by job kind and program,
	// the classes request_tail_ms is taken over.
	kinds := []string{server.KindCompile, server.KindExecute, server.KindAdapt}
	byClass := make([][]float64, len(kinds)*len(swPrograms))
	layers := newLayerSet()
	for _, d := range done {
		if d.seq < swCountJobs {
			layers.add("server.result_bytes", float64(d.bytes))
		}
		if !d.traced {
			plain = append(plain, d.latencyMS)
			k := slices.Index(kinds, d.job.kind)*len(swPrograms) + d.job.program
			byClass[k] = append(byClass[k], d.latencyMS)
			continue
		}
		traced = append(traced, d.latencyMS)
		layers.add("request_ms", d.latencyMS)
		layers.add("server.admit_ms", d.admitMS)
		layers.add("server.queue_wait_ms", d.waitMS)
		layers.add("server.run_ms."+d.job.kind, d.runMS)
		layers.add("server.result_ms", d.resultMS)
		layers.add("server.overhead_ms", d.latencyMS-d.waitMS-d.runMS)
		layers.add("covered_ms", d.coveredMS)
	}
	tl := classTail("request_tail_ms", byClass, swTailPct, classMinBeyond)
	out.tails = []tail{tl}
	out.endToEnd = map[string]float64{
		"setup_s":          median(append([]float64(nil), setups...)),
		"request_gm_ms":    geomean(plain),
		"request_tail_ms":  tl.Value,
		"throughput_per_s": float64(ok) / window,
		"peak_rss_mb":      peakRSSMB(),
		"ok_share":         float64(ok) / float64(out.attempted),
	}
	if !cfg.trace {
		return out, nil
	}
	out.layers = zeroLayers()
	for _, k := range []string{"server.admit_ms", "server.queue_wait_ms", "server.run_ms.compile",
		"server.run_ms.execute", "server.run_ms.adapt", "server.result_ms", "server.result_bytes",
		"server.overhead_ms"} {
		out.layers[k] = layers.avg(k)
	}
	out.layers["obs.scrape_ms"] = scrapes.avg("obs.scrape_ms")
	out.layers["obs.scrape_bytes"] = scrapes.avg("obs.scrape_bytes")
	out.layers["server.rejected"] = float64(rejected)
	delta := func(name string, want ...string) float64 {
		return after.sum(name, want...) - before.sum(name, want...)
	}
	if lookups := delta("switchqnet_frontend_requests_total"); lookups > 0 {
		out.layers["frontend.hit_share"] = delta("switchqnet_frontend_requests_total", `outcome="hit"`) / lookups
	}
	if trials := delta("switchqnet_exec_total"); trials > 0 {
		out.layers["runtime.retries_per_trial"] = delta("switchqnet_exec_recoveries_total", `action="retry"`) / trials
	}
	// POST → 202 overlaps the job's queue wait and run (the 202 is
	// written after the job is queued), so the reconciliation uses the
	// contiguous server intervals instead: submit → finished and the
	// result fetch.
	out.layers["request.unattributed_share"] = unattributed(layers, []string{"covered_ms"})
	out.layers["trace_overhead_pct"] = 100 * (geomean(traced)/geomean(plain) - 1)
	for k, v := range goMetrics(g0, g1, len(done)) {
		out.layers[k] = v
	}
	return out, nil
}

// checkServed verifies every served result after the run, returning
// one error per job that failed: a compile result must equal the
// library's trace.WriteJSON of the same compile, an execute result the
// library's runtime.RunTrials → trace.WriteStatsJSON at the same seed,
// and an adapt result must hold its two rounds and be the same bytes on
// every repeat. References are computed once per distinct request.
func checkServed(done []*swDone) []error {
	fcache := frontend.New()
	want := map[swJob][32]byte{}
	var errs []error
	for _, d := range done {
		if d.job.kind == server.KindAdapt && d.rounds != 2 {
			errs = append(errs, fmt.Errorf("%+v: adapt result holds %d rounds, want 2", d.job, d.rounds))
			continue
		}
		w, ok := want[d.job]
		if !ok {
			w = d.digest // adapt: the first result is the reference for its repeats
			if d.job.kind != server.KindAdapt {
				ref, err := reference(fcache, d.job)
				if err != nil {
					return append(errs, fmt.Errorf("%+v: reference: %w", d.job, err))
				}
				w = sha256.Sum256(ref)
			}
			want[d.job] = w
		}
		if d.digest != w {
			errs = append(errs, fmt.Errorf("%+v: result differs from the reference", d.job))
		}
	}
	return errs
}

// reference renders the library pipeline's document for a compile or
// execute job.
func reference(fc *frontend.Cache, j swJob) ([]byte, error) {
	p := swPrograms[j.program]
	arch, err := p.arch()
	if err != nil {
		return nil, err
	}
	demands, err := fc.Demands(p.bench, arch, comm.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := core.Compile(demands, arch, hw.Default(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if j.kind == server.KindCompile {
		err = trace.WriteJSON(&buf, res)
		return buf.Bytes(), err
	}
	fcfg, err := faults.Profile("default")
	if err != nil {
		return nil, err
	}
	st := runtime.RunTrials(res, arch, fcfg, runtime.DefaultPolicy(), j.seed, swTrials, 1)
	err = trace.WriteStatsJSON(&buf, st)
	return buf.Bytes(), err
}

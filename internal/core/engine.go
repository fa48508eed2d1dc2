package core

import (
	"fmt"
	"sort"
	"time"

	"switchqnet/internal/epr"
	"switchqnet/internal/hw"
	"switchqnet/internal/netstate"
	"switchqnet/internal/obs"
	"switchqnet/internal/topology"
)

// status is a demand's lifecycle state.
type status uint8

const (
	stPending   status = iota // not yet scheduled
	stScheduled               // generation (or split) in flight
	stStored                  // pair generated, waiting in buffer
	stConsumed                // pair consumed by its communication
)

// demandState is the mutable per-demand scheduling state.
type demandState struct {
	status status
	// pendPreds counts direct predecessors still pending (working-DAG
	// in-degree: the front layer of Section 4.2 has pendPreds == 0).
	pendPreds int16
	// consPreds counts direct predecessors not yet consumed (true
	// dependency for consumption).
	consPreds int16
	// commHeldA/commHeldB record the front-layer exemption: the pair
	// half stays on a communication qubit instead of a buffer slot.
	commHeldA, commHeldB bool
	splitID              int32 // index into splits, or -1
	readyAt              hw.Time
	consumedAt           hw.Time
}

// splitState tracks one cross-rack split (Section 4.3).
type splitState struct {
	demand            int32
	busy, helper, far int32 // QPU ids: in-rack side, borrowed QPU, remote side
	k                 int   // pairs per distillation
	// mBusy, mHelper, mFar are the buffer reservations of Section 4.3,
	// consumed incrementally as the post-split pairs take their slots.
	mBusy, mHelper, mFar int
	crossDone, inDone    bool
	crossReady           hw.Time
	inReady              hw.Time
	inScheduled          bool
}

// evKind is the type of a completion event.
type evKind uint8

const (
	evGenDone   evKind = iota // regular generation finished (ref = demand)
	evCrossDone               // split's substitute cross-rack pair done (ref = split)
	evInDone                  // split's distilled in-rack pair done (ref = split)
	// evWake is a no-op timeline tick injected by the partitioned
	// compiler (ref = -1): it forces the cross-rack partition to run a
	// scheduling pass at every time the serial engine would have — the
	// other partitions' event times — so split parts queued after a
	// pass's main loop are picked up at exactly the serial pass time.
	evWake
)

type event struct {
	t    hw.Time
	seq  int32
	kind evKind
	ref  int32
}

// eventHeap is a binary min-heap ordered by (t, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h).less(parent, i) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// engineState is everything the retry mechanism must checkpoint. The
// generation log is NOT part of it: gens (on the engine) is append-only,
// so a checkpoint records only its length (gensLen) and a revert
// truncates the log instead of deep-copying it.
type engineState struct {
	net    *netstate.State
	ds     []demandState
	splits []splitState
	parts  []int32 // split ids whose in-rack parts await scheduling
	// outstanding is the per-QPU ledger of pending buffer releases; it
	// backs the projected_buffer computation of Section 4.3.
	outstanding [][]relEntry
	frontier    map[int32]struct{}
	events      eventHeap
	ready       []int32 // stored demands with consPreds == 0, pending consumption
	// gensLen is the checkpoint watermark into engine.gens: the length
	// of the append-only generation log when this state was snapshot.
	gensLen     int
	consumed    int
	strictNext  int32
	seq         int32
	slices      int // scheduling passes executed in this timeline
	splitCount  int
	extraInRack int
}

func (s *engineState) clone() *engineState { return s.cloneInto(nil) }

// cloneInto deep-copies the state into dst, reusing dst's allocated
// storage where possible (the checkpoint arena: replacing a checkpoint
// recycles the slices and maps of the one it supersedes, so steady-state
// checkpointing allocates only when the schedule outgrows the arena).
// dst == nil allocates a fresh state; dst must not alias s.
func (s *engineState) cloneInto(dst *engineState) *engineState {
	if dst == nil {
		dst = &engineState{}
	}
	dst.net = s.net.CloneInto(dst.net)
	dst.ds = append(dst.ds[:0], s.ds...)
	dst.splits = append(dst.splits[:0], s.splits...)
	dst.parts = append(dst.parts[:0], s.parts...)
	if dst.outstanding == nil {
		dst.outstanding = make([][]relEntry, len(s.outstanding))
	}
	for q, entries := range s.outstanding {
		dst.outstanding[q] = append(dst.outstanding[q][:0], entries...)
	}
	if dst.frontier == nil {
		dst.frontier = make(map[int32]struct{}, len(s.frontier))
	} else {
		clear(dst.frontier)
	}
	for k := range s.frontier {
		dst.frontier[k] = struct{}{}
	}
	dst.events = append(dst.events[:0], s.events...)
	dst.ready = append(dst.ready[:0], s.ready...)
	dst.gensLen = s.gensLen
	dst.consumed = s.consumed
	dst.strictNext = s.strictNext
	dst.seq = s.seq
	dst.slices = s.slices
	dst.splitCount = s.splitCount
	dst.extraInRack = s.extraInRack
	return dst
}

// engine drives one compilation.
type engine struct {
	dag  *epr.DAG
	arch *topology.Arch
	p    hw.Params
	opts Options

	st *engineState

	// gens is the append-only generation log. It lives outside
	// engineState so checkpoints record only a watermark (gensLen) and
	// reverts truncate; see maybeCheckpoint and retry.
	gens []GenEvent

	// Retry bookkeeping (outside the checkpointed state).
	checkpoint0 *engineState
	checkpoint  *engineState
	// spare is the one-slot checkpoint arena: the engineState most
	// recently superseded, recycled by the next snapshot.
	spare           *engineState
	revertCount     int
	retries         int
	totalSlices     int
	override        Strategy
	overrideUntil   hw.Time
	overrideActive  bool
	overrideForever bool
	// routeFail is the per-pass negative route cache, cleared (not
	// reallocated) at the start of every pass. Each entry records the
	// netstate teardown epoch it was written at: a later epoch means
	// OpenChannel tore down idle channels mid-pass, freeing edges or BSMs
	// the pair may have needed, so the entry is dropped instead of
	// trusted (see routeBlocked).
	routeFail map[[2]int]uint64
	// Look-ahead window scratch (see window): winOut doubles as the
	// returned slice, winDepth/winStamp are the epoch-stamped per-demand
	// depth table that replaces a per-call map, and winQueue is the BFS
	// queue drained by head index.
	winOut   []int32
	winQueue []int32
	winDepth []int32
	winStamp []uint32
	winEpoch uint32
	// invariantErr records the first inline invariant violation detected
	// under the debug flag (see assertf); the run loop surfaces it.
	invariantErr error

	// Partitioned-compile support (parallel.go); all zero on the serial
	// path. router, when set, gives the partition's netstate a private
	// router (one per worker goroutine). failFast makes retry() abort
	// with errPartitionRetry instead of reverting — a retry reverts and
	// re-strategizes globally, so the coordinator recompiles serially.
	// wakes are the no-op evWake times injected into the cross-rack
	// partition (see evKind). meta records the serial-order open log and
	// pass times the merge needs; the cur* fields are the serial-order
	// key components of the channel open currently being attempted,
	// maintained by pass() and read by noteOpen.
	router   *topology.Router
	failFast bool
	wakes    []hw.Time
	meta     *partMeta
	curStage uint8 // 0 main loop, 1 split round, 2 post-split drain
	curPhase uint8 // within the main loop: 0 parts, 1 window
	curIter  int32 // 1-based iteration within the stage
	curOrd1  int32 // window depth of the demand, or -1 for a part
	curOrd2  int32 // demand id (window/split) or part sequence number
	partSeq  int32 // monotonic part-attempt counter feeding curOrd2

	// Observability (nil handles when disabled; every use is a no-op
	// then, so instrumented code paths behave identically).
	sched *obs.Span // parent span for per-pass phases
	om    compileMetrics
}

// Compile schedules the demand list on the architecture and returns the
// compiled communication schedule. It is deterministic: identical inputs
// produce identical results.
func Compile(demands []epr.Demand, arch *topology.Arch, p hw.Params, opts Options) (*Result, error) {
	return CompileObserved(demands, arch, p, opts, nil)
}

// CompileObserved is Compile with observability: phase spans around
// normalization, DAG construction and scheduling (with per-pass, retry
// and checkpoint children merged by name), and pipeline counters on o's
// registry. A nil o disables all of it — the schedule produced is
// identical either way.
func CompileObserved(demands []epr.Demand, arch *topology.Arch, p hw.Params, opts Options, o *obs.Obs) (*Result, error) {
	var startT time.Time
	if o != nil {
		startT = time.Now()
	}
	sp := o.StartSpan("compile")
	defer sp.End()

	norm := sp.StartSpan("normalize")
	if err := arch.Validate(); err != nil {
		norm.End()
		return nil, err
	}
	if err := p.Validate(); err != nil {
		norm.End()
		return nil, err
	}
	if err := opts.normalize(arch.CommQubits, arch.BufferSize); err != nil {
		norm.End()
		return nil, err
	}
	// Canonicalize the adaptive network profile: validate indices, sort
	// and deduplicate, and collapse an empty profile to nil so compiling
	// with one is indistinguishable — DeepEqual included — from the
	// static path.
	if opts.Profile != nil {
		q, err := opts.Profile.canonical(arch)
		if err != nil {
			norm.End()
			return nil, err
		}
		opts.Profile = q
	}
	// Normalize the CrossRack flags against the architecture rather than
	// trusting the caller.
	ds := make([]epr.Demand, len(demands))
	for i, d := range demands {
		if d.A < 0 || d.A >= arch.NumQPUs() || d.B < 0 || d.B >= arch.NumQPUs() {
			norm.End()
			return nil, fmt.Errorf("core: demand %d endpoints (%d, %d) outside %d QPUs", i, d.A, d.B, arch.NumQPUs())
		}
		d.CrossRack = !arch.Net.InRack(d.A, d.B)
		ds[i] = d
	}
	norm.End()

	bd := sp.StartSpan("build_dag")
	dag, err := epr.BuildDAG(ds)
	bd.End()
	if err != nil {
		return nil, err
	}

	if opts.CompileParallel > 1 && opts.Strategy != StrategyStrict {
		r, err := compileParallel(dag, arch, p, opts, o, sp)
		if err != nil {
			return nil, err
		}
		if r != nil {
			if o != nil {
				om := newCompileMetrics(o.Reg())
				om.record(r)
				om.duration.Observe(time.Since(startT).Seconds())
			}
			return r, nil
		}
		// nil result: partitioning was not applicable (one connected
		// group) or was abandoned (retry, resource conflict) — the
		// serial engine below produces the canonical schedule.
	}

	e := &engine{dag: dag, arch: arch, p: p, opts: opts}
	if o != nil {
		e.om = newCompileMetrics(o.Reg())
	}
	e.init()
	e.sched = sp.StartSpan("schedule")
	err = e.run()
	e.sched.End()
	if err != nil {
		return nil, err
	}
	r := e.result()
	if o != nil {
		e.om.record(r)
		e.om.duration.Observe(time.Since(startT).Seconds())
	}
	return r, nil
}

func (e *engine) init() {
	n := e.dag.Len()
	var net *netstate.State
	if e.router != nil {
		net = netstate.NewWithRouter(e.arch, e.p, e.router)
	} else {
		net = netstate.New(e.arch, e.p)
	}
	// Apply the adaptive network profile before the first checkpoint
	// snapshot, so retries restore the degraded view rather than the
	// pristine fabric. Partition engines pass through here too, each
	// applying the profile to its own router clone and state.
	if prof := e.opts.Profile; prof != nil {
		net.ApplyNetProfile(prof.avoidMask(len(e.arch.Net.Edges)), prof.DeadEdges, prof.DeadBSMRacks)
	}
	st := &engineState{
		net:         net,
		ds:          make([]demandState, n),
		outstanding: make([][]relEntry, e.arch.NumQPUs()),
		frontier:    make(map[int32]struct{}),
	}
	for i := 0; i < n; i++ {
		st.ds[i] = demandState{
			status:    stPending,
			pendPreds: int16(len(e.dag.Preds[i])),
			consPreds: int16(len(e.dag.Preds[i])),
			splitID:   -1,
		}
		if st.ds[i].pendPreds == 0 {
			st.frontier[int32(i)] = struct{}{}
		}
	}
	// The partitioned compiler's wake ticks enter the event heap up
	// front; they pop before same-time completion events (lower seq),
	// which is immaterial — advance drains all events of a time at once.
	for _, t := range e.wakes {
		st.seq++
		st.events.push(event{t: t, seq: st.seq, kind: evWake, ref: -1})
	}
	e.st = st
	e.winDepth = make([]int32, n)
	e.winStamp = make([]uint32, n)
	if n > 0 && e.gens == nil {
		// Every demand takes one generation; splits (and the
		// distillation of split pairs) add more, and room for half again
		// as many spares the log most of its regrowth.
		c := n
		if e.opts.Split {
			c += n / 2
		}
		e.gens = make([]GenEvent, 0, c)
	}
	e.checkpoint0 = e.snapshot(nil)
	e.checkpoint = e.checkpoint0
}

// snapshot deep-copies the live state (into dst's recycled storage when
// non-nil) and stamps the current generation-log watermark.
func (e *engine) snapshot(dst *engineState) *engineState {
	dst = e.st.cloneInto(dst)
	dst.gensLen = len(e.gens)
	return dst
}

// restore makes cp the live state: the discarded state's storage is
// recycled as the clone arena and the append-only generation log is
// truncated to the checkpoint's watermark (entries past it belong to
// the abandoned timeline and are overwritten by future appends).
func (e *engine) restore(cp *engineState) {
	old := e.st
	if old == cp { // never alias the checkpoint with the live state
		old = nil
	}
	e.st = cp.cloneInto(old)
	e.gens = e.gens[:cp.gensLen]
}

// strategy returns the discipline in force at the current time.
func (e *engine) strategy() Strategy {
	if e.overrideForever {
		return e.override
	}
	if e.overrideActive {
		if e.st.net.Now < e.overrideUntil {
			return e.override
		}
		e.overrideActive = false
	}
	return e.opts.Strategy
}

func (e *engine) run() error {
	for {
		e.pass()
		if e.invariantErr != nil {
			return e.invariantErr
		}
		if e.st.consumed == e.dag.Len() {
			return nil
		}
		if len(e.st.events) == 0 {
			if err := e.retry(); err != nil {
				return err
			}
			continue
		}
		e.advance()
		if err := e.validateState(e.st.net.Now); err != nil {
			return err
		}
		e.maybeCheckpoint()
	}
}

// advance pops every event at the next event time, processes the
// completions and runs the consumption cascade.
func (e *engine) advance() {
	st := e.st
	t := st.events[0].t
	st.net.Now = t
	for len(st.events) > 0 && st.events[0].t == t {
		ev := st.events.pop()
		switch ev.kind {
		case evGenDone:
			e.genDone(ev.ref, t)
		case evCrossDone:
			e.crossDone(ev.ref, t)
		case evInDone:
			e.inDone(ev.ref, t)
		case evWake:
			// Partition timeline tick: no state change, the pass after
			// this advance is the point.
		}
	}
	e.consumeCascade(t)
}

// genDone completes a regular generation: communication qubits are
// freed (unless holding the pair under the front-layer exemption) and
// the pair is stored.
func (e *engine) genDone(demand int32, t hw.Time) {
	st := e.st
	d := &st.ds[demand]
	dm := e.dag.Demands[demand]
	if !d.commHeldA {
		st.net.QPUs[dm.A].FreeComm++
	}
	if !d.commHeldB {
		st.net.QPUs[dm.B].FreeComm++
	}
	d.status = stStored
	d.readyAt = t
	if d.consPreds == 0 {
		st.ready = append(st.ready, demand)
	}
}

// crossDone completes a split's substitute cross-rack pair.
func (e *engine) crossDone(split int32, t hw.Time) {
	st := e.st
	s := &st.splits[split]
	st.net.QPUs[s.far].FreeComm++
	st.net.QPUs[s.helper].FreeComm++
	s.crossDone = true
	s.crossReady = t
	if s.inDone {
		e.mergeSplit(split, t)
	}
}

// inDone completes a split's distilled in-rack pair (the last of its k
// collective generations).
func (e *engine) inDone(split int32, t hw.Time) {
	st := e.st
	s := &st.splits[split]
	st.net.QPUs[s.busy].FreeComm++
	st.net.QPUs[s.helper].FreeComm++
	// The distillation working slots free on each side (zero when the
	// split was not distilled).
	st.net.QPUs[s.busy].FreeBuf += e.takeReleases(int(s.busy), relDistill, split)
	st.net.QPUs[s.helper].FreeBuf += e.takeReleases(int(s.helper), relDistill, split)
	s.inDone = true
	s.inReady = t
	if s.crossDone {
		e.mergeSplit(split, t)
	}
}

// mergeSplit performs the entanglement swap on the helper QPU: its two
// halves are measured away (freeing two buffer slots) and the merged
// pair becomes a stored demand.
func (e *engine) mergeSplit(split int32, t hw.Time) {
	st := e.st
	s := &st.splits[split]
	st.net.QPUs[s.helper].FreeBuf += e.takeReleases(int(s.helper), relSwap, split)
	d := &st.ds[s.demand]
	d.status = stStored
	d.readyAt = t
	if d.consPreds == 0 {
		st.ready = append(st.ready, s.demand)
	}
}

// consumeCascade consumes every stored demand whose predecessors are all
// consumed, repeatedly, releasing buffer per protocol (Section 4.3's
// projected-buffer rules: Cat +1 each side, TP +2 source / +0
// destination).
func (e *engine) consumeCascade(t hw.Time) {
	st := e.st
	for len(st.ready) > 0 {
		id := st.ready[len(st.ready)-1]
		st.ready = st.ready[:len(st.ready)-1]
		d := &st.ds[id]
		if d.status != stStored || d.consPreds != 0 {
			continue
		}
		dm := e.dag.Demands[id]
		d.status = stConsumed
		d.consumedAt = t
		st.consumed++
		e.releaseEndpoint(dm, dm.A, d.commHeldA)
		e.releaseEndpoint(dm, dm.B, d.commHeldB)
		for _, succ := range e.dag.Succs[id] {
			sd := &st.ds[succ]
			sd.consPreds--
			if sd.consPreds == 0 && sd.status == stStored {
				st.ready = append(st.ready, succ)
			}
		}
	}
	for st.strictNext < int32(e.dag.Len()) && st.ds[st.strictNext].status == stConsumed {
		st.strictNext++
	}
}

// bufferRelease returns the buffer slots consumption frees on QPU q for
// demand dm, given whether the half was held on a comm qubit.
func bufferRelease(dm epr.Demand, q int, commHeld bool) int {
	var r int
	switch {
	case dm.Protocol == epr.Cat:
		r = 1
	case q == dm.A: // TP source: half slot + departed data qubit
		r = 2
	default: // TP destination: half slot is taken over by arriving data
		r = 0
	}
	if commHeld {
		r-- // the half never occupied a buffer slot
	}
	return r
}

func (e *engine) releaseEndpoint(dm epr.Demand, q int, commHeld bool) {
	st := e.st
	st.net.QPUs[q].FreeBuf += e.takeReleases(q, relConsume, int32(dm.ID))
	if commHeld {
		st.net.QPUs[q].FreeComm++
	}
}

func (e *engine) maybeCheckpoint() {
	if e.st.slices-e.checkpoint.slices >= e.opts.CheckpointEvery {
		e.sched.Mark("checkpoint")
		e.om.checkpoints.Inc()
		// Recycle the superseded checkpoint's storage: amortized O(1)
		// allocation per checkpoint once the arena has grown. The
		// initial-state checkpoint is permanent and never recycled.
		old := e.checkpoint
		if old == e.checkpoint0 {
			old, e.spare = e.spare, nil
		}
		e.checkpoint = e.snapshot(old)
		e.revertCount = 0
	}
}

// retry implements the auto-retry of Section 4.5: revert to a saved
// state and downgrade the strategy, escalating to strict on-demand from
// the initial state if the issue persists.
func (e *engine) retry() error {
	if e.failFast {
		// Partition mode: a retry reverts state and downgrades the
		// strategy globally in the serial engine, which a partition
		// cannot reproduce locally. Abort; the coordinator recompiles
		// the whole workload serially (a partition sticks if and only
		// if the serial engine would have at the same point, since the
		// partitions' resources are disjoint).
		return errPartitionRetry
	}
	if debugStuck != nil {
		debugStuck(e)
	}
	e.sched.Mark("retry")
	e.retries++
	if e.retries > e.opts.MaxRetries {
		return fmt.Errorf("core: compilation stuck after %d retries (strategy %v, %d/%d demands consumed)",
			e.retries-1, e.strategy(), e.st.consumed, e.dag.Len())
	}
	e.revertCount++
	switch {
	case e.revertCount == 1:
		e.restore(e.checkpoint)
		e.override = StrategyBufferAssisted
		e.overrideUntil = e.st.net.Now + e.opts.RecoveryWindow
		e.overrideActive = true
	case e.revertCount == 2:
		e.restore(e.checkpoint)
		e.override = StrategyStrict
		e.overrideUntil = e.st.net.Now + 4*e.opts.RecoveryWindow
		e.overrideActive = true
	default:
		e.restore(e.checkpoint0)
		if e.checkpoint != e.checkpoint0 {
			e.spare = e.checkpoint // recycle the abandoned checkpoint
		}
		e.checkpoint = e.checkpoint0
		e.override = StrategyStrict
		e.overrideForever = true
	}
	return nil
}

// result assembles the Result from the final state.
func (e *engine) result() *Result {
	st := e.st
	r := &Result{
		Demands:         e.dag.Demands,
		Gens:            e.gens,
		ReadyAt:         make([]hw.Time, e.dag.Len()),
		ConsumedAt:      make([]hw.Time, e.dag.Len()),
		CommHeld:        make([][2]bool, e.dag.Len()),
		Splits:          st.splitCount,
		ExtraInRack:     st.extraInRack,
		Reconfigs:       st.net.Reconfigs,
		Retries:         e.retries,
		EventsProcessed: e.totalSlices,
		EventsFinal:     st.slices,
		Params:          e.p,
		Opts:            e.opts,
	}
	// The echoed options always report CompileParallel as 0 (mergeResult
	// does the same): the knob never changes the schedule, so results
	// stay DeepEqual across worker counts and serial fallbacks.
	r.Opts.CompileParallel = 0
	if e.opts.DistillK >= 2 {
		r.DistilledPairs = st.splitCount
	}
	for i := range r.ReadyAt {
		r.ReadyAt[i] = st.ds[i].readyAt
		r.ConsumedAt[i] = st.ds[i].consumedAt
		r.CommHeld[i] = [2]bool{st.ds[i].commHeldA, st.ds[i].commHeldB}
		if st.ds[i].consumedAt > r.Makespan {
			r.Makespan = st.ds[i].consumedAt
		}
	}
	sort.SliceStable(r.Gens, func(i, j int) bool {
		if r.Gens[i].Start != r.Gens[j].Start {
			return r.Gens[i].Start < r.Gens[j].Start
		}
		return r.Gens[i].Demand < r.Gens[j].Demand
	})
	return r
}

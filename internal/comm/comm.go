// Package comm is the preprocessing stage of Section 4.1: it turns a
// placed circuit into the ordered list of EPR-pair demands the
// SwitchQNet scheduler consumes. Following the buffer-aware compilation
// of QuComm/AutoComm it aggregates bursts of remote gates sharing a
// control qubit into single Cat-protocol pairs, and migrates qubits via
// the TP protocol when a window of upcoming gates favors the remote QPU.
// The pass assumes full logical connectivity between QPUs, as the paper
// prescribes for reconfigurable QDC networks.
package comm

import (
	"fmt"

	"switchqnet/internal/circuit"
	"switchqnet/internal/epr"
	"switchqnet/internal/place"
	"switchqnet/internal/topology"
)

// Options tunes the extraction pass.
type Options struct {
	// TPWindow is how many upcoming two-qubit gates on a qubit are
	// examined when deciding whether to teleport it (default 20).
	TPWindow int
	// TPThreshold is the minimum number of gates in the window that must
	// favor the destination QPU to justify a TP migration (default 4).
	TPThreshold int
	// DisableTP forces Cat-only extraction.
	DisableTP bool
	// DisableCatAggregation emits one EPR demand per remote gate instead
	// of merging bursts sharing a control. Burst aggregation provisions a
	// shared cat state ahead of the gates that use it — a look-ahead the
	// on-demand baseline does not have — so the baseline pipeline runs
	// with this (and DisableTP) set.
	DisableCatAggregation bool
	// MaxMigrants caps how many foreign data qubits a QPU may host at
	// once, protecting its buffer allocation (default: half the buffer).
	MaxMigrants int
}

// DefaultOptions returns the defaults used in the evaluation.
func DefaultOptions() Options {
	return Options{TPWindow: 20, TPThreshold: 4}
}

// BaselineOptions returns the extraction used for the paper's on-demand
// baseline: one EPR pair per remote gate, no teleportation migration —
// the preprocessing a scheduler without look-ahead can actually exploit.
func BaselineOptions() Options {
	o := DefaultOptions()
	o.DisableTP = true
	o.DisableCatAggregation = true
	return o
}

// Extract produces the EPR demand list for circuit c placed by p on
// arch. The returned demands are in program order (the order the
// communications are first needed), as required by the DAG construction
// of Section 4.1.
func Extract(c *circuit.Circuit, p place.Placement, arch *topology.Arch, opts Options) ([]epr.Demand, error) {
	if len(p) < c.NumQubits {
		return nil, fmt.Errorf("comm: placement covers %d qubits, circuit has %d", len(p), c.NumQubits)
	}
	if opts.TPWindow <= 0 {
		opts.TPWindow = 20
	}
	if opts.TPThreshold <= 0 {
		opts.TPThreshold = 4
	}
	if opts.MaxMigrants <= 0 {
		opts.MaxMigrants = arch.BufferSize / 2
	}

	e := extractor{
		circ: c, arch: arch, opts: opts,
		cur:      append(place.Placement(nil), p...),
		home:     p,
		open:     make([]int32, len(p)),
		mate:     make([]int32, len(p)),
		migrants: make([]int, arch.NumQPUs()),
	}
	for q := range e.open {
		e.open[q], e.mate[q] = -1, -1
	}
	if !opts.DisableTP {
		// Only TP decisions walk the window.
		e.twoQ = buildTwoQIndex(c, len(p))
	} else if opts.DisableCatAggregation {
		// Without migration or aggregation every remote two-qubit gate
		// is one demand, so the list is sized exactly.
		if n := remoteGates(c, p); n > 0 {
			e.demands = make([]epr.Demand, 0, n)
		}
	}
	return e.run()
}

// remoteGates counts the two-qubit gates of c whose operands p places
// on different QPUs.
func remoteGates(c *circuit.Circuit, p place.Placement) int {
	n := 0
	for _, g := range c.Gates {
		if g.TwoQubit() && p[g.Q0] != p[g.Q1] {
			n++
		}
	}
	return n
}

// twoQIndex lists, for each qubit, the indices of the two-qubit gates
// touching it in circuit order, so a TP decision walks the window of
// upcoming two-qubit gates on one qubit in O(window). The lists are
// packed: qubit q's gates are gates[start[q]:start[q+1]].
type twoQIndex struct {
	start []int32
	gates []int32
	// next is, per qubit, the first entry of its list not before the
	// extractor's current gate. The extractor visits gates in order, so
	// the cursors only move forward.
	next []int32
}

// buildTwoQIndex indexes the two-qubit gates of c over numQubits
// qubits: 8 bytes per two-qubit gate, nothing for single-qubit gates.
func buildTwoQIndex(c *circuit.Circuit, numQubits int) twoQIndex {
	start := make([]int32, numQubits+1)
	for _, g := range c.Gates {
		if g.TwoQubit() {
			start[g.Q0+1]++
			if g.Q1 != g.Q0 {
				start[g.Q1+1]++
			}
		}
	}
	for q := 0; q < numQubits; q++ {
		start[q+1] += start[q]
	}
	gates := make([]int32, start[numQubits])
	next := append([]int32(nil), start[:numQubits]...) // fill cursors
	for i, g := range c.Gates {
		if g.TwoQubit() {
			gates[next[g.Q0]] = int32(i)
			next[g.Q0]++
			if g.Q1 != g.Q0 {
				gates[next[g.Q1]] = int32(i)
				next[g.Q1]++
			}
		}
	}
	copy(next, start[:numQubits]) // now the walk cursors
	return twoQIndex{start: start, gates: gates, next: next}
}

// from returns qubit q's two-qubit gates from gate gi on, advancing q's
// cursor to gi. gi must not precede an earlier call's gi for q.
func (x *twoQIndex) from(q, gi int32) []int32 {
	i, end := x.next[q], x.start[q+1]
	for i < end && x.gates[i] < gi {
		i++
	}
	x.next[q] = i
	return x.gates[i:end]
}

type extractor struct {
	circ *circuit.Circuit
	arch *topology.Arch
	opts Options

	cur  place.Placement // dynamic placement (mutated by TP migrations)
	home place.Placement // original placement

	demands []epr.Demand
	// open maps each qubit to the index (into demands) of the open Cat
	// block it is a candidate root of, or -1. The block's QPU pair is
	// its demand's (A, B).
	open []int32
	// mate maps a candidate root to the other candidate root of its
	// block, or -1. A CX block has one candidate; a symmetric (CZ/CP)
	// block has two until an absorption fixes the root.
	mate     []int32
	migrants []int // per-QPU count of hosted foreign qubits

	twoQ twoQIndex
}

// emit appends demand d (its ID is set here) and returns its index.
func (e *extractor) emit(d epr.Demand) int {
	id := len(e.demands)
	d.ID = id
	e.demands = append(e.demands, d)
	return id
}

func (e *extractor) run() ([]epr.Demand, error) {
	for i, g := range e.circ.Gates {
		if !g.TwoQubit() {
			// A local gate on a control qubit breaks its cat state.
			e.closeBlocksTouching(g.Q0)
			continue
		}
		a, b := e.cur[g.Q0], e.cur[g.Q1]
		if a == b {
			// Local two-qubit gate: still breaks cat blocks rooted at
			// either operand.
			e.closeBlocksTouching(g.Q0)
			e.closeBlocksTouching(g.Q1)
			continue
		}
		// Try to absorb into an open Cat block controlled by either
		// operand over the same QPU pair.
		if !e.opts.DisableCatAggregation {
			if idx := e.open[g.Q0]; idx >= 0 && e.pairMatches(idx, a, b) {
				e.fixRoot(g.Q0)
				e.closeBlocksTouching(g.Q1)
				e.demands[idx].Gates++
				continue
			}
			if symmetric(g.Kind) {
				if idx := e.open[g.Q1]; idx >= 0 && e.pairMatches(idx, a, b) {
					e.fixRoot(g.Q1)
					e.closeBlocksTouching(g.Q0)
					e.demands[idx].Gates++
					continue
				}
			}
		}
		// The gate needs a new communication. Close stale blocks on both
		// operands first.
		e.closeBlocksTouching(g.Q0)
		e.closeBlocksTouching(g.Q1)

		if !e.opts.DisableTP {
			if moved := e.tryMigrate(int32(i), g); moved {
				continue // gate became local after teleportation
			}
		}
		// Open a Cat block controlled by g.Q0 (the control for CX;
		// either operand works for the symmetric CZ/CP kinds).
		id := e.emit(epr.Demand{
			A: a, B: b, Protocol: epr.Cat,
			CrossRack: e.arch.RackOf(a) != e.arch.RackOf(b),
			Gates:     1,
		})
		if !e.opts.DisableCatAggregation {
			// Both operands were just closed, so neither has a mate.
			e.open[g.Q0] = int32(id)
			if symmetric(g.Kind) {
				// Either operand of a symmetric gate may turn out to be
				// the repeating control; keep both candidates until an
				// absorption decides.
				e.open[g.Q1] = int32(id)
				e.mate[g.Q0], e.mate[g.Q1] = g.Q1, g.Q0
			}
		}
	}
	return e.demands, nil
}

// pairMatches reports whether open block idx connects QPUs a and b.
func (e *extractor) pairMatches(idx int32, a, b int) bool {
	d := &e.demands[idx]
	return (d.A == a && d.B == b) || (d.A == b && d.B == a)
}

// closeBlocksTouching removes qubit q as a candidate root of its open
// Cat block. When the block has another candidate root it survives
// under that root; otherwise it is closed. (After an absorption fixes a
// block's root, the gate's other operand is no longer a candidate of
// that block, so closing it never touches the block absorbed into.)
func (e *extractor) closeBlocksTouching(q int32) {
	if uint(q) >= uint(len(e.open)) {
		return // no block is ever opened on a qubit outside the placement
	}
	if e.open[q] < 0 {
		return
	}
	e.open[q] = -1
	if m := e.mate[q]; m >= 0 {
		e.mate[q], e.mate[m] = -1, -1 // the block survives under m alone
	}
}

// fixRoot commits the block q is a candidate root of to root q,
// dropping the other candidate, if any.
func (e *extractor) fixRoot(q int32) {
	if m := e.mate[q]; m >= 0 {
		e.open[m] = -1
		e.mate[q], e.mate[m] = -1, -1
	}
}

// symmetric reports whether the gate kind is control-symmetric, so a
// Cat block may be rooted at either operand.
func symmetric(k circuit.GateKind) bool { return k == circuit.CZ || k == circuit.CP }

// tryMigrate decides whether to teleport one operand of gate g (at
// index gi) to the other operand's QPU. It emits a TP demand and updates
// the dynamic placement when the upcoming-gate window favors migration.
func (e *extractor) tryMigrate(gi int32, g circuit.Gate) bool {
	// Score both directions; migrate the qubit whose window benefit is
	// larger, if it clears the threshold.
	s0 := e.migrationScore(gi, g.Q0, e.cur[g.Q1])
	s1 := e.migrationScore(gi, g.Q1, e.cur[g.Q0])
	q, dst, score := g.Q0, e.cur[g.Q1], s0
	if s1 > s0 {
		q, dst, score = g.Q1, e.cur[g.Q0], s1
	}
	if score < e.opts.TPThreshold {
		return false
	}
	if e.migrants[dst] >= e.opts.MaxMigrants {
		return false
	}
	src := e.cur[q]
	e.emit(epr.Demand{
		A: src, B: dst, Protocol: epr.TP,
		CrossRack: e.arch.RackOf(src) != e.arch.RackOf(dst),
		Gates:     1,
	})
	// Any cat block rooted at the migrating qubit is now stale.
	e.closeBlocksTouching(q)
	if e.home[q] == dst {
		// Returning home frees a migrant slot at the current host.
		if e.migrants[src] > 0 {
			e.migrants[src]--
		}
	} else {
		e.migrants[dst]++
	}
	e.cur[q] = dst
	return true
}

// migrationScore counts, within the TP window of upcoming two-qubit
// gates touching q, how many would become local if q moved to dst,
// minus how many would become remote (they are local at q's current
// QPU).
func (e *extractor) migrationScore(gi int32, q int32, dst int) int {
	cur := e.cur[q]
	score := 0
	window := e.twoQ.from(q, gi)
	if len(window) > e.opts.TPWindow {
		window = window[:e.opts.TPWindow]
	}
	for _, idx := range window {
		g := e.circ.Gates[idx]
		partner := g.Q0
		if g.Q0 == q {
			partner = g.Q1
		}
		switch e.cur[partner] {
		case dst:
			score++
		case cur:
			score--
		}
	}
	return score
}

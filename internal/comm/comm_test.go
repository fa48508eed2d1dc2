package comm

import (
	"math/rand"
	"testing"

	"switchqnet/internal/circuit"
	"switchqnet/internal/epr"
	"switchqnet/internal/place"
	"switchqnet/internal/topology"
)

// arch2x2 is 2 racks x 2 QPUs x 4 data qubits (16 qubits total).
func arch2x2(t *testing.T) *topology.Arch {
	t.Helper()
	a, err := topology.NewArch("clos", 2, 2, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func extract(t *testing.T, c *circuit.Circuit, arch *topology.Arch, opts Options) []epr.Demand {
	t.Helper()
	p, err := place.Blocks(c.NumQubits, arch)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Extract(c, p, arch, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLocalCircuitNeedsNoEPR(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("local", 16)
	c.Append(circuit.Two(circuit.CX, 0, 1), circuit.Two(circuit.CX, 2, 3),
		circuit.Single(circuit.H, 0))
	if ds := extract(t, c, arch, DefaultOptions()); len(ds) != 0 {
		t.Errorf("local circuit produced %d demands: %v", len(ds), ds)
	}
}

func TestSingleRemoteGateOneDemand(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("r", 16)
	c.Append(circuit.Two(circuit.CX, 0, 4)) // QPU 0 -> QPU 1, same rack
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 {
		t.Fatalf("demands = %v, want 1", ds)
	}
	d := ds[0]
	if d.Protocol != epr.Cat || d.CrossRack || d.A != 0 || d.B != 1 {
		t.Errorf("demand = %+v", d)
	}
}

func TestCatAggregationSharedControl(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("cat", 16)
	// Three CX gates with the same control 0 targeting QPU 1: one Cat pair.
	c.Append(
		circuit.Two(circuit.CX, 0, 4),
		circuit.Two(circuit.CX, 0, 5),
		circuit.Two(circuit.CX, 0, 6),
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 {
		t.Fatalf("demands = %v, want 1 aggregated Cat pair", ds)
	}
	if ds[0].Gates != 3 {
		t.Errorf("aggregated gates = %d, want 3", ds[0].Gates)
	}
}

func TestCatBlockBrokenByLocalGateOnControl(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("brk", 16)
	c.Append(
		circuit.Two(circuit.CX, 0, 4),
		circuit.Single(circuit.H, 0), // breaks the cat state
		circuit.Two(circuit.CX, 0, 5),
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 2 {
		t.Fatalf("demands = %v, want 2 (block broken by H on control)", ds)
	}
}

func TestCatBlockSurvivesGateOnTarget(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("tgt", 16)
	c.Append(
		circuit.Two(circuit.CX, 0, 4),
		circuit.Single(circuit.T, 4), // target-side gate does not break the block
		circuit.Two(circuit.CX, 0, 5),
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 {
		t.Fatalf("demands = %v, want 1", ds)
	}
}

func TestCatBlockBrokenByDifferentPair(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("pair", 16)
	c.Append(
		circuit.Two(circuit.CX, 0, 4), // QPU pair (0,1)
		circuit.Two(circuit.CX, 0, 8), // QPU pair (0,2): new block
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 2 {
		t.Fatalf("demands = %v, want 2", ds)
	}
	if !ds[1].CrossRack {
		t.Errorf("second demand should be cross-rack: %+v", ds[1])
	}
}

func TestSymmetricGateAbsorbsEitherSide(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("cz", 16)
	// CZ is symmetric: block rooted at 4 after first gate (control
	// convention Q0), absorbed by second gate where 4 is the Q1 operand.
	c.Append(
		circuit.TwoP(circuit.CP, 4, 0, 1),
		circuit.TwoP(circuit.CP, 1, 4, 1),
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 {
		t.Fatalf("demands = %v, want 1 (symmetric absorption)", ds)
	}
	if ds[0].Gates != 2 {
		t.Errorf("gates = %d, want 2", ds[0].Gates)
	}
}

func TestTPMigration(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("tp", 16)
	// Qubit 0 interacts 6 times with distinct partners on QPU 1: TP wins.
	for _, tgt := range []int{4, 5, 6, 4, 5, 6} {
		c.Append(circuit.Two(circuit.CX, 0, tgt))
		c.Append(circuit.Single(circuit.H, 0)) // break cat blocks in between
	}
	ds := extract(t, c, arch, Options{TPWindow: 20, TPThreshold: 3, MaxMigrants: 2})
	if len(ds) == 0 || ds[0].Protocol != epr.TP {
		t.Fatalf("demands = %v, want leading TP migration", ds)
	}
	// After migration everything is local: exactly one demand.
	if len(ds) != 1 {
		t.Errorf("demands = %v, want 1", ds)
	}
}

func TestTPDisabledFallsBackToCat(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("tp-off", 16)
	for _, tgt := range []int{4, 5, 6, 4, 5, 6} {
		c.Append(circuit.Two(circuit.CX, 0, tgt))
		c.Append(circuit.Single(circuit.H, 0))
	}
	ds := extract(t, c, arch, Options{DisableTP: true})
	for _, d := range ds {
		if d.Protocol != epr.Cat {
			t.Errorf("demand %v not Cat with TP disabled", d)
		}
	}
	if len(ds) != 6 {
		t.Errorf("demands = %d, want 6 broken Cat blocks", len(ds))
	}
}

func TestMaxMigrantsCap(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("cap", 16)
	// Two qubits each want to migrate to QPU 1, but the cap is 1.
	for _, q := range []int{0, 1} {
		for _, tgt := range []int{4, 5, 6, 4, 5, 6} {
			c.Append(circuit.Two(circuit.CX, q, tgt))
			c.Append(circuit.Single(circuit.H, q))
		}
	}
	ds := extract(t, c, arch, Options{TPWindow: 20, TPThreshold: 3, MaxMigrants: 1})
	tp := 0
	for _, d := range ds {
		if d.Protocol == epr.TP {
			tp++
		}
	}
	if tp != 1 {
		t.Errorf("TP migrations = %d, want exactly 1 (capped)", tp)
	}
}

func TestExtractPlacementTooSmall(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("big", 16)
	if _, err := Extract(c, place.Placement{0, 1}, arch, DefaultOptions()); err == nil {
		t.Error("short placement accepted")
	}
}

func TestDemandIDsSequential(t *testing.T) {
	arch := arch2x2(t)
	c, err := circuit.QFT(16)
	if err != nil {
		t.Fatal(err)
	}
	ds := extract(t, c, arch, DefaultOptions())
	for i, d := range ds {
		if d.ID != i {
			t.Fatalf("demand %d has ID %d", i, d.ID)
		}
		if d.A == d.B {
			t.Fatalf("demand %d has equal endpoints", i)
		}
	}
	if _, err := epr.BuildDAG(ds); err != nil {
		t.Fatalf("BuildDAG on extracted demands: %v", err)
	}
}

func TestBenchmarksProduceCrossAndInRack(t *testing.T) {
	arch := arch2x2(t)
	for _, name := range []string{"mct", "qft"} {
		c, err := circuit.Benchmark(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		ds := extract(t, c, arch, DefaultOptions())
		counts := epr.Count(ds)
		if counts.Total == 0 {
			t.Errorf("%s: no demands extracted", name)
		}
		if name == "qft" && (counts.CrossRack == 0 || counts.InRack == 0) {
			t.Errorf("qft: counts = %+v, want both in-rack and cross-rack", counts)
		}
	}
}

func TestSymmetricDualRootAggregation(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("dual", 16)
	// QFT-style mesh: varying controls j share the target 0 on QPU 0;
	// partners 4,5,6 sit on QPU 1. The block roots at 0 and absorbs all.
	c.Append(
		circuit.TwoP(circuit.CP, 4, 0, 1),
		circuit.TwoP(circuit.CP, 5, 0, 1),
		circuit.TwoP(circuit.CP, 6, 0, 1),
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 || ds[0].Gates != 3 {
		t.Fatalf("demands = %v, want one 3-gate block", ds)
	}
}

func TestDualRootSurvivesLocalGateOnOneCandidate(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("survive", 16)
	c.Append(
		circuit.TwoP(circuit.CP, 4, 0, 1), // block candidates {4, 0}
		circuit.Single(circuit.H, 4),      // 4 can no longer be the root
		circuit.TwoP(circuit.CP, 5, 0, 1), // absorbed via candidate 0
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 1 || ds[0].Gates != 2 {
		t.Fatalf("demands = %v, want one 2-gate block", ds)
	}
}

func TestDualRootClosedWhenBothCandidatesBreak(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("close", 16)
	c.Append(
		circuit.TwoP(circuit.CP, 4, 0, 1),
		circuit.Single(circuit.H, 4),
		circuit.Single(circuit.H, 0),
		circuit.TwoP(circuit.CP, 5, 0, 1), // fresh block: both roots broken
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 2 {
		t.Fatalf("demands = %v, want 2", ds)
	}
}

func TestBrokenCandidateLeavesNoLinkToItsBlock(t *testing.T) {
	arch := arch2x2(t)
	c := circuit.New("relink", 16)
	c.Append(
		circuit.TwoP(circuit.CP, 0, 4, 1), // block A on QPUs 0-1, candidates 0 and 4
		circuit.Single(circuit.H, 4),      // A survives under 0 alone
		circuit.TwoP(circuit.CP, 4, 8, 1), // block B on QPUs 1-2, candidates 4 and 8
		circuit.Two(circuit.CX, 0, 5),     // absorbed into A: must not touch B
		circuit.Two(circuit.CX, 4, 9),     // absorbed into B under root 4
	)
	ds := extract(t, c, arch, Options{DisableTP: true})
	if len(ds) != 2 || ds[0].Gates != 2 || ds[1].Gates != 2 {
		t.Fatalf("demands = %v, want two blocks of 2 gates", ds)
	}
}

func TestFixedRootStopsAbsorbingViaOtherOperand(t *testing.T) {
	arch := arch2x2(t)
	// First absorption roots the block at 0; a later gate sharing only
	// the abandoned candidate 4 must open a new block. The candidates
	// sit on either operand, so the root is fixed through the gate's
	// second operand in one order and its first in the other.
	for _, swap := range []bool{false, true} {
		cp := func(a, b int) circuit.Gate {
			if swap {
				a, b = b, a
			}
			return circuit.TwoP(circuit.CP, a, b, 1)
		}
		c := circuit.New("fixed", 16)
		c.Append(
			cp(4, 0),
			cp(5, 0), // roots at 0
			cp(4, 1), // shares only abandoned 4: new block
		)
		ds := extract(t, c, arch, Options{DisableTP: true})
		if len(ds) != 2 {
			t.Fatalf("swap=%v: demands = %v, want 2", swap, ds)
		}
		if ds[0].Gates != 2 || ds[1].Gates != 1 {
			t.Fatalf("swap=%v: gate counts = %d/%d, want 2/1", swap, ds[0].Gates, ds[1].Gates)
		}
	}
}

func TestExtractPropertyRandomCircuits(t *testing.T) {
	// Property over random circuits: extraction never emits more demands
	// than remote gates, every demand's endpoints are valid and distinct,
	// aggregated gate counts sum to the remote-gate total (Cat blocks
	// partition the remote gates; TP migrations add demands but make
	// gates local).
	arch := arch2x2(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		c := circuit.New("rand", 16)
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(circuit.Single(circuit.H, rng.Intn(16)))
			case 1:
				a := rng.Intn(16)
				b := (a + 1 + rng.Intn(15)) % 16
				c.Append(circuit.Two(circuit.CX, a, b))
			default:
				a := rng.Intn(16)
				b := (a + 1 + rng.Intn(15)) % 16
				c.Append(circuit.TwoP(circuit.CP, a, b, rng.Float64()))
			}
		}
		p, err := place.Blocks(16, arch)
		if err != nil {
			t.Fatal(err)
		}
		remote := place.CostOf(c, p, arch).Remote
		ds, err := Extract(c, p, arch, Options{DisableTP: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) > remote {
			t.Fatalf("trial %d: %d demands for %d remote gates", trial, len(ds), remote)
		}
		gates := 0
		for i, d := range ds {
			if d.ID != i || d.A == d.B || d.A < 0 || d.B >= arch.NumQPUs() {
				t.Fatalf("trial %d: bad demand %+v", trial, d)
			}
			gates += d.Gates
		}
		if gates != remote {
			t.Fatalf("trial %d: aggregated gates %d != remote gates %d", trial, gates, remote)
		}
		if _, err := epr.BuildDAG(ds); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBaselineDemandsSizedExactly checks that the baseline extraction
// (no TP, no aggregation) allocates its demand list at its final size.
func TestBaselineDemandsSizedExactly(t *testing.T) {
	arch, err := topology.NewArch("clos", 4, 2, 20, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"mct", "qft", "grover", "rca", "ghz", "bv"} {
		c, err := circuit.Benchmark(bench, arch.TotalQubits())
		if err != nil {
			t.Fatal(err)
		}
		p, err := place.Blocks(c.NumQubits, arch)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Extract(c, p, arch, BaselineOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) == 0 || len(ds) != cap(ds) {
			t.Errorf("%s: baseline demands len %d, cap %d", bench, len(ds), cap(ds))
		}
	}
}

package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGateConstructors(t *testing.T) {
	g := Single(H, 3)
	if g.Kind != H || g.Q0 != 3 || g.Q1 != -1 || g.TwoQubit() {
		t.Errorf("Single(H, 3) = %+v", g)
	}
	g = Two(CX, 1, 2)
	if g.Kind != CX || g.Q0 != 1 || g.Q1 != 2 || !g.TwoQubit() {
		t.Errorf("Two(CX, 1, 2) = %+v", g)
	}
	g = TwoP(CP, 0, 5, math.Pi)
	if g.Param != math.Pi || !g.TwoQubit() {
		t.Errorf("TwoP(CP) = %+v", g)
	}
}

func TestGateString(t *testing.T) {
	if s := Two(CX, 1, 2).String(); s != "cx q1,q2" {
		t.Errorf("gate string = %q", s)
	}
	if s := Single(Tdg, 7).String(); s != "tdg q7" {
		t.Errorf("gate string = %q", s)
	}
	if s := GateKind(200).String(); s != "GateKind(200)" {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestValidateCatchesBadGates(t *testing.T) {
	cases := []struct {
		name string
		g    Gate
	}{
		{"q0 out of range", Single(H, 9)},
		{"negative qubit", Gate{Kind: H, Q0: -1, Q1: -1}},
		{"q1 out of range", Two(CX, 0, 9)},
		{"equal operands", Two(CX, 2, 2)},
		{"single with q1", Gate{Kind: H, Q0: 0, Q1: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New("bad", 4)
			c.Append(tc.g)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate() accepted %+v", tc.g)
			}
		})
	}
}

func TestToffoliDecomposition(t *testing.T) {
	c := New("ccx", 3)
	c.AppendToffoli(0, 1, 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Gates != 15 {
		t.Errorf("Toffoli gate count = %d, want 15", s.Gates)
	}
	if s.TCount != 7 {
		t.Errorf("Toffoli T-count = %d, want 7", s.TCount)
	}
	if s.TwoQubit != 6 {
		t.Errorf("Toffoli CNOT count = %d, want 6", s.TwoQubit)
	}
}

func TestMCTStructure(t *testing.T) {
	c, err := MCT(480)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 480 {
		t.Errorf("NumQubits = %d", c.NumQubits)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// V-chain over 240 controls: 2*240-3 = 477 Toffolis, 15 gates each.
	if got, want := len(c.Gates), 477*15; got != want {
		t.Errorf("MCT-480 gate count = %d, want %d", got, want)
	}
}

func TestMCTSmallCases(t *testing.T) {
	c, err := MCT(4) // 2 controls -> single Toffoli
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 15 {
		t.Errorf("MCT-4 gates = %d, want 15", len(c.Gates))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMCTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 2, 3, 5, 7} {
		if _, err := MCT(n); err == nil {
			t.Errorf("MCT(%d) accepted", n)
		}
	}
}

func TestQFTStructure(t *testing.T) {
	c, err := QFT(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.KindCounts[H] != 8 {
		t.Errorf("QFT-8 H count = %d, want 8", s.KindCounts[H])
	}
	if s.KindCounts[CP] != 8*7/2 {
		t.Errorf("QFT-8 CP count = %d, want 28", s.KindCounts[CP])
	}
	// First CP angle is pi/2.
	var first *Gate
	for i := range c.Gates {
		if c.Gates[i].Kind == CP {
			first = &c.Gates[i]
			break
		}
	}
	if first == nil || math.Abs(first.Param-math.Pi/2) > 1e-12 {
		t.Errorf("first CP angle = %+v, want pi/2", first)
	}
	if _, err := QFT(1); err == nil {
		t.Error("QFT(1) accepted")
	}
}

func TestGroverStructure(t *testing.T) {
	c, err := Grover(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Gate count scales linearly with iterations.
	c1, _ := Grover(30, 1)
	c3, _ := Grover(30, 3)
	perIter := len(c3.Gates) - len(c.Gates)
	if len(c.Gates)-len(c1.Gates) != perIter {
		t.Errorf("Grover iteration cost not constant: %d vs %d",
			len(c.Gates)-len(c1.Gates), perIter)
	}
	if _, err := Grover(30, 0); err == nil {
		t.Error("Grover with 0 iterations accepted")
	}
	if _, err := Grover(5, 1); err == nil {
		t.Error("Grover(5) accepted")
	}
}

func TestRCAStructure(t *testing.T) {
	c, err := RCA(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// m = 9: MAJ/UMA each contain one Toffoli (15 gates) + 2 CX, 9 of
	// each, plus one carry-out CX: 9*17*2 + 1.
	if got, want := len(c.Gates), 9*17*2+1; got != want {
		t.Errorf("RCA-20 x1 gate count = %d, want %d", got, want)
	}
	c2, err := RCA(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Gates) != 2*len(c.Gates) {
		t.Errorf("RCA iterations not linear: %d vs 2*%d", len(c2.Gates), len(c.Gates))
	}
	if _, err := RCA(4, 1); err == nil {
		t.Error("RCA(4) accepted")
	}
	if _, err := RCA(20, 0); err == nil {
		t.Error("RCA with 0 iterations accepted")
	}
}

func TestBenchmarkDispatch(t *testing.T) {
	for _, name := range []string{"mct", "MCT", "qft", "QFT"} {
		c, err := Benchmark(name, 16)
		if err != nil {
			t.Errorf("Benchmark(%q): %v", name, err)
			continue
		}
		if c.NumQubits != 16 {
			t.Errorf("Benchmark(%q) qubits = %d", name, c.NumQubits)
		}
	}
	if _, err := Benchmark("nope", 16); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if got := BenchmarkNames(); len(got) != 4 || got[0] != "MCT" {
		t.Errorf("BenchmarkNames() = %v", got)
	}
}

func TestAllBenchmarksValidateProperty(t *testing.T) {
	// Property: every generated benchmark at every even size validates
	// and never exceeds its register.
	f := func(seed uint8) bool {
		n := 6 + 2*int(seed%20) // 6..44
		for _, name := range []string{"mct", "qft"} {
			c, err := Benchmark(name, n)
			if err != nil || c.Validate() != nil {
				return false
			}
			if c.Stats().MaxQubit >= c.NumQubits {
				return false
			}
		}
		c, err := Grover(n, 2)
		if err != nil || c.Validate() != nil {
			return false
		}
		c, err = RCA(n, 2)
		if err != nil || c.Validate() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsKindCounts(t *testing.T) {
	c := New("s", 3)
	c.Append(Single(H, 0), Two(CX, 0, 1), Single(T, 2), Single(Tdg, 1), Two(CZ, 1, 2))
	s := c.Stats()
	if s.Gates != 5 || s.TwoQubit != 2 || s.TCount != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxQubit != 2 {
		t.Errorf("MaxQubit = %d", s.MaxQubit)
	}
}

func TestGHZStructure(t *testing.T) {
	c, err := GHZ(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.KindCounts[H] != 1 || s.KindCounts[CX] != 7 {
		t.Errorf("GHZ stats = %+v", s.KindCounts)
	}
	if _, err := GHZ(1); err == nil {
		t.Error("GHZ(1) accepted")
	}
}

func TestBVStructure(t *testing.T) {
	c, err := BV(5, 0b10110)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().KindCounts[CX]; got != 3 {
		t.Errorf("BV oracle CNOTs = %d, want popcount(secret) = 3", got)
	}
	if _, err := BV(3, 9); err == nil {
		t.Error("oversized secret accepted")
	}
	if _, err := BV(0, 0); err == nil {
		t.Error("BV(0) accepted")
	}
}

// TestBuildersSizeExactly pins the builders' closed-form gate counts:
// every benchmark allocates its gate slice once, at exactly the length
// it fills, over a range of widths (and the raw builders at iteration
// counts other than the benchmarks' 100).
func TestBuildersSizeExactly(t *testing.T) {
	check := func(c *Circuit, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Gates) != cap(c.Gates) {
			t.Errorf("%s: len(Gates) = %d, cap = %d", c.Name, len(c.Gates), cap(c.Gates))
		}
	}
	for _, name := range []string{"mct", "qft", "grover", "rca", "ghz", "bv"} {
		for n := 6; n <= 480; n += 2 {
			if n > 64 && n%24 != 0 {
				continue
			}
			check(Benchmark(name, n))
		}
	}
	for _, n := range []int{4, 6, 8} {
		check(MCT(n))
	}
	for _, n := range []int{2, 3, 30, 31} {
		for _, d := range []int{1, 2, 24, 100} {
			check(QFTApprox(n, d))
		}
	}
	for _, it := range []int{1, 3} {
		check(Grover(10, it))
		check(RCA(10, it))
	}
	check(BV(5, 0b10110))
	check(BV(5, 0))
}

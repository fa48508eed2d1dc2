package circuit

import (
	"fmt"
	"math"
	"math/bits"
)

// MCT builds the multi-control Toffoli benchmark over totalQubits
// qubits: a V-chain decomposition with totalQubits/2 controls,
// totalQubits/2 - 1 chain ancillas and one target, matching the paper's
// "multi-qubit gate decomposition" building block. totalQubits must be
// even and at least 4.
func MCT(totalQubits int) (*Circuit, error) {
	if totalQubits < 4 || totalQubits%2 != 0 {
		return nil, fmt.Errorf("circuit: MCT needs an even qubit count >= 4, got %d", totalQubits)
	}
	nCtl := totalQubits / 2
	c := newSized(fmt.Sprintf("MCT-%d", totalQubits), totalQubits, vChainGates(nCtl))
	// Interleaved chain layout so consecutive chain steps touch adjacent
	// qubit indices (and thus mostly stay inside one QPU under block
	// placement): ctl0, ctl1, anc0, ctl2, anc1, ctl3, ... target last.
	ctl := func(i int) int {
		if i <= 1 {
			return i
		}
		return 2*i - 1
	}
	anc := func(i int) int { return 2*i + 2 }
	target := totalQubits - 1
	appendVChain(c, nCtl, ctl, anc, target)
	return c, nil
}

// vChainGates is the number of gates appendVChain emits for nCtl
// controls: one CX, one Toffoli, or 2*nCtl-3 Toffolis for a longer
// chain (compute, the target Toffoli, uncompute).
func vChainGates(nCtl int) int {
	if nCtl == 1 {
		return 1
	}
	return toffoliGates * (2*nCtl - 3)
}

// appendVChain emits a V-chain multi-control X: ctl(i) maps the control
// qubits, anc(i) maps the chain ancillas, target receives the X. The
// chain computes ANDs forward, applies the final Toffoli to the target,
// then uncomputes in reverse.
func appendVChain(c *Circuit, nCtl int, ctl, anc func(int) int, target int) {
	if nCtl == 1 {
		c.Append(Two(CX, ctl(0), target))
		return
	}
	if nCtl == 2 {
		c.AppendToffoli(ctl(0), ctl(1), target)
		return
	}
	c.AppendToffoli(ctl(0), ctl(1), anc(0))
	for i := 2; i < nCtl-1; i++ {
		c.AppendToffoli(ctl(i), anc(i-2), anc(i-1))
	}
	c.AppendToffoli(ctl(nCtl-1), anc(nCtl-3), target)
	for i := nCtl - 2; i >= 2; i-- {
		c.AppendToffoli(ctl(i), anc(i-2), anc(i-1))
	}
	c.AppendToffoli(ctl(0), ctl(1), anc(0))
}

// QFT builds the full n-qubit quantum Fourier transform: for each qubit
// a Hadamard followed by controlled-phase rotations from every later
// qubit. Final bit-reversal swaps are omitted (they are relabelings).
func QFT(n int) (*Circuit, error) { return QFTApprox(n, n) }

// QFTApprox builds the approximate QFT: controlled-phase rotations are
// truncated beyond maxDist positions (angles below pi/2^maxDist are
// dropped), the standard AQFT construction. The benchmark suite uses
// maxDist = 24, which keeps every retained rotation within reach of the
// neighboring QPU under block placement — matching the locality the
// paper's QFT EPR counts imply.
func QFTApprox(n, maxDist int) (*Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuit: QFT needs >= 2 qubits, got %d", n)
	}
	if maxDist < 1 {
		return nil, fmt.Errorf("circuit: QFT approximation distance %d, want >= 1", maxDist)
	}
	name := fmt.Sprintf("QFT-%d", n)
	if maxDist < n {
		name = fmt.Sprintf("AQFT-%d(d=%d)", n, maxDist)
	}
	gates := 0
	for i := 0; i < n; i++ {
		gates += 1 + min(n-1-i, maxDist)
	}
	c := newSized(name, n, gates)
	for i := 0; i < n; i++ {
		c.Append(Single(H, i))
		for j := i + 1; j < n && j-i <= maxDist; j++ {
			angle := math.Pi / float64(int64(1)<<uint(j-i))
			c.Append(TwoP(CP, j, i, angle))
		}
	}
	return c, nil
}

// Grover builds the Grover's-search benchmark over totalQubits qubits
// with the all-ones secret string, repeating the Grover iteration the
// given number of times (the paper uses 100). Half the register holds
// search qubits; the other half (minus padding) holds the V-chain
// ancillas for the multi-control phase oracle. totalQubits must be even
// and at least 6.
func Grover(totalQubits, iterations int) (*Circuit, error) {
	if totalQubits < 6 || totalQubits%2 != 0 {
		return nil, fmt.Errorf("circuit: Grover needs an even qubit count >= 6, got %d", totalQubits)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("circuit: Grover needs >= 1 iteration, got %d", iterations)
	}
	// n search qubits, n-2 chain ancillas: total = 2n-2. Search qubits
	// and ancillas are interleaved along the V-chain for locality under
	// block placement, as in MCT.
	n := (totalQubits + 2) / 2
	// Initial layer, then per iteration two MCZs (H, chain, H) and the
	// 4n single-qubit gates of the diffusion operator.
	gates := n + iterations*(2*(2+vChainGates(n-1))+4*n)
	c := newSized(fmt.Sprintf("Grover-%d", totalQubits), totalQubits, gates)
	search := func(i int) int {
		if i <= 1 {
			return i
		}
		return 2*i - 1
	}
	anc := func(i int) int { return 2*i + 2 }
	target := search(n - 1) // phase target is the last search qubit

	mcz := func() {
		// Multi-control Z on all n search qubits = H(target) MCX H(target)
		// with the first n-1 search qubits as controls.
		c.Append(Single(H, target))
		appendVChain(c, n-1, search, anc, target)
		c.Append(Single(H, target))
	}

	// Initial superposition.
	for q := 0; q < n; q++ {
		c.Append(Single(H, search(q)))
	}
	for it := 0; it < iterations; it++ {
		// Oracle for the all-ones string: MCZ over the search register.
		mcz()
		// Diffusion operator.
		for q := 0; q < n; q++ {
			c.Append(Single(H, search(q)), Single(X, search(q)))
		}
		mcz()
		for q := 0; q < n; q++ {
			c.Append(Single(X, search(q)), Single(H, search(q)))
		}
	}
	return c, nil
}

// RCA builds the Cuccaro ripple-carry adder benchmark over totalQubits
// qubits, repeated the given number of iterations (the paper repeats the
// adder 100 times, adapting it to a sum calculation). The register holds
// two m-bit operands plus a carry-in ancilla and a carry-out qubit, so
// totalQubits = 2m + 2 and must be even and at least 6.
func RCA(totalQubits, iterations int) (*Circuit, error) {
	if totalQubits < 6 || totalQubits%2 != 0 {
		return nil, fmt.Errorf("circuit: RCA needs an even qubit count >= 6, got %d", totalQubits)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("circuit: RCA needs >= 1 iteration, got %d", iterations)
	}
	m := (totalQubits - 2) / 2
	// Per iteration: m MAJ and m UMA blocks (two CXs and a Toffoli
	// each) plus the carry-out CX.
	gates := iterations * (2*m*(2+toffoliGates) + 1)
	c := newSized(fmt.Sprintf("RCA-%d", totalQubits), totalQubits, gates)
	// Layout: carry-in 0, interleaved b_i at 1+2i, a_i at 2+2i, carry-out last.
	carryIn := 0
	b := func(i int) int { return 1 + 2*i }
	a := func(i int) int { return 2 + 2*i }
	carryOut := totalQubits - 1

	maj := func(x, y, z int) {
		c.Append(Two(CX, z, y), Two(CX, z, x))
		c.AppendToffoli(x, y, z)
	}
	uma := func(x, y, z int) {
		c.AppendToffoli(x, y, z)
		c.Append(Two(CX, z, x), Two(CX, x, y))
	}

	for it := 0; it < iterations; it++ {
		maj(carryIn, b(0), a(0))
		for i := 1; i < m; i++ {
			maj(a(i-1), b(i), a(i))
		}
		c.Append(Two(CX, a(m-1), carryOut))
		for i := m - 1; i >= 1; i-- {
			uma(a(i-1), b(i), a(i))
		}
		uma(carryIn, b(0), a(0))
	}
	return c, nil
}

// Benchmark builds one of the paper's four benchmarks by name
// ("mct", "qft", "grover", "rca") over totalQubits qubits. Grover and
// RCA use the paper's 100 iterations.
func Benchmark(name string, totalQubits int) (*Circuit, error) {
	switch name {
	case "mct", "MCT":
		return MCT(totalQubits)
	case "qft", "QFT":
		return QFTApprox(totalQubits, 24)
	case "grover", "Grover":
		return Grover(totalQubits, 100)
	case "rca", "RCA":
		return RCA(totalQubits, 100)
	case "ghz", "GHZ":
		return GHZ(totalQubits)
	case "bv", "BV":
		// All-ones secret over totalQubits-1 input bits (capped at 63).
		n := totalQubits - 1
		if n > 63 {
			n = 63
		}
		return BV(n, 1<<uint(n)-1)
	default:
		return nil, fmt.Errorf("circuit: unknown benchmark %q (want mct, qft, grover, rca, ghz or bv)", name)
	}
}

// BenchmarkNames lists the benchmark programs of the paper's evaluation
// in presentation order.
func BenchmarkNames() []string { return []string{"MCT", "QFT", "Grover", "RCA"} }

// GHZ builds the n-qubit GHZ state preparation: a Hadamard followed by
// a CNOT chain. Under block placement the chain crosses each QPU
// boundary exactly once, making it the minimal cross-rack communication
// probe.
func GHZ(n int) (*Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuit: GHZ needs >= 2 qubits, got %d", n)
	}
	c := newSized(fmt.Sprintf("GHZ-%d", n), n, n)
	c.Append(Single(H, 0))
	for i := 1; i < n; i++ {
		c.Append(Two(CX, i-1, i))
	}
	return c, nil
}

// BV builds the Bernstein-Vazirani circuit over n input qubits plus one
// phase qubit (n+1 total) for the given secret bit string: one query to
// the inner-product oracle reveals the secret. All oracle CNOTs share
// the phase qubit as target, so the whole oracle aggregates into a
// handful of Cat blocks — the best case for burst aggregation.
func BV(n int, secret uint64) (*Circuit, error) {
	if n < 1 || n > 63 {
		return nil, fmt.Errorf("circuit: BV needs 1..63 input qubits, got %d", n)
	}
	if secret >= 1<<uint(n) {
		return nil, fmt.Errorf("circuit: secret %d does not fit %d bits", secret, n)
	}
	c := newSized(fmt.Sprintf("BV-%d", n+1), n+1, 2+2*n+bits.OnesCount64(secret))
	phase := n
	c.Append(Single(X, phase), Single(H, phase))
	for i := 0; i < n; i++ {
		c.Append(Single(H, i))
	}
	for i := 0; i < n; i++ {
		if secret&(1<<uint(i)) != 0 {
			c.Append(Two(CX, i, phase))
		}
	}
	for i := 0; i < n; i++ {
		c.Append(Single(H, i))
	}
	return c, nil
}

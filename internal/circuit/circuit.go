// Package circuit provides the gate-level intermediate representation
// the SwitchQNet pipeline consumes, together with generators for the
// paper's benchmark programs (Section 5.1): multi-control Toffoli (MCT),
// quantum Fourier transform (QFT), Grover search with an all-ones secret
// string repeated 100 times, and a ripple-carry adder (RCA) repeated 100
// times.
//
// All multi-qubit primitives are lowered to one- and two-qubit gates at
// construction time, so downstream passes only ever see gates touching
// at most two qubits.
package circuit

import "fmt"

// GateKind enumerates the gate set of the IR.
type GateKind uint8

// Gate kinds. Single-qubit kinds use only Q0; two-qubit kinds use Q0 as
// control (or first operand) and Q1 as target.
const (
	H GateKind = iota
	X
	Z
	S
	Sdg
	T
	Tdg
	RZ // Param: rotation angle
	CX
	CZ
	CP // controlled-phase, Param: angle
	numKinds
)

var kindNames = [numKinds]string{"h", "x", "z", "s", "sdg", "t", "tdg", "rz", "cx", "cz", "cp"}

// String implements fmt.Stringer.
func (k GateKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// TwoQubit reports whether the kind acts on two qubits.
func (k GateKind) TwoQubit() bool { return k == CX || k == CZ || k == CP }

// Gate is one operation. For single-qubit gates Q1 is -1.
type Gate struct {
	Kind   GateKind
	Q0, Q1 int32
	Param  float64
}

// Single constructs a single-qubit gate.
func Single(k GateKind, q int) Gate { return Gate{Kind: k, Q0: int32(q), Q1: -1} }

// Two constructs a two-qubit gate with control/first operand c and
// target t.
func Two(k GateKind, c, t int) Gate { return Gate{Kind: k, Q0: int32(c), Q1: int32(t)} }

// TwoP constructs a parameterized two-qubit gate.
func TwoP(k GateKind, c, t int, param float64) Gate {
	return Gate{Kind: k, Q0: int32(c), Q1: int32(t), Param: param}
}

// TwoQubit reports whether the gate acts on two qubits.
func (g Gate) TwoQubit() bool { return g.Kind.TwoQubit() }

// String implements fmt.Stringer.
func (g Gate) String() string {
	if g.TwoQubit() {
		return fmt.Sprintf("%s q%d,q%d", g.Kind, g.Q0, g.Q1)
	}
	return fmt.Sprintf("%s q%d", g.Kind, g.Q0)
}

// Circuit is an ordered gate list over NumQubits qubits. The order is a
// valid topological execution order.
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	return &Circuit{Name: name, NumQubits: n}
}

// newSized returns an empty circuit over n qubits whose gate slice has
// capacity for exactly gates gates. The builders compute gates in
// closed form, so building never regrows (and re-copies) the slice.
func newSized(name string, n, gates int) *Circuit {
	return &Circuit{Name: name, NumQubits: n, Gates: make([]Gate, 0, gates)}
}

// Append adds gates to the end of the circuit.
func (c *Circuit) Append(gs ...Gate) { c.Gates = append(c.Gates, gs...) }

// Validate checks that every gate references qubits inside the register
// and that two-qubit gates have distinct operands.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if g.Q0 < 0 || int(g.Q0) >= c.NumQubits {
			return fmt.Errorf("circuit %s: gate %d (%v) qubit %d out of range [0,%d)", c.Name, i, g, g.Q0, c.NumQubits)
		}
		if g.TwoQubit() {
			if g.Q1 < 0 || int(g.Q1) >= c.NumQubits {
				return fmt.Errorf("circuit %s: gate %d (%v) qubit %d out of range [0,%d)", c.Name, i, g, g.Q1, c.NumQubits)
			}
			if g.Q0 == g.Q1 {
				return fmt.Errorf("circuit %s: gate %d (%v) has equal operands", c.Name, i, g)
			}
		} else if g.Q1 != -1 {
			return fmt.Errorf("circuit %s: gate %d (%v) single-qubit gate with Q1 = %d", c.Name, i, g, g.Q1)
		}
	}
	return nil
}

// Stats summarizes a circuit.
type Stats struct {
	Gates      int
	TwoQubit   int
	TCount     int
	MaxQubit   int
	KindCounts map[GateKind]int
}

// Stats computes summary statistics of the circuit.
func (c *Circuit) Stats() Stats {
	s := Stats{KindCounts: make(map[GateKind]int)}
	s.Gates = len(c.Gates)
	for _, g := range c.Gates {
		s.KindCounts[g.Kind]++
		if g.TwoQubit() {
			s.TwoQubit++
		}
		if g.Kind == T || g.Kind == Tdg {
			s.TCount++
		}
		if int(g.Q0) > s.MaxQubit {
			s.MaxQubit = int(g.Q0)
		}
		if int(g.Q1) > s.MaxQubit {
			s.MaxQubit = int(g.Q1)
		}
	}
	return s
}

// toffoliGates is the length of the Clifford+T Toffoli network.
const toffoliGates = 15

// AppendToffoli lowers a Toffoli (CCX) gate with controls a, b and
// target t into the standard 15-gate Clifford+T network.
func (c *Circuit) AppendToffoli(a, b, t int) {
	c.Append(
		Single(H, t),
		Two(CX, b, t),
		Single(Tdg, t),
		Two(CX, a, t),
		Single(T, t),
		Two(CX, b, t),
		Single(Tdg, t),
		Two(CX, a, t),
		Single(T, b),
		Single(T, t),
		Two(CX, a, b),
		Single(H, t),
		Single(T, a),
		Single(Tdg, b),
		Two(CX, a, b),
	)
}

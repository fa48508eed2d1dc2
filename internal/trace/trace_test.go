package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"switchqnet/internal/circuit"
	"switchqnet/internal/comm"
	"switchqnet/internal/core"
	"switchqnet/internal/epr"
	"switchqnet/internal/hw"
	"switchqnet/internal/place"
	"switchqnet/internal/topology"
)

func fig6Result(t *testing.T) (*core.Result, *topology.Arch) {
	t.Helper()
	arch, err := topology.New(topology.Config{
		Topology: "clos", Racks: 2, QPUsPerRack: 2,
		DataQubits: 30, BufferSize: 10, CommQubits: 2, LinkWeight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	demands := []epr.Demand{
		{ID: 0, A: 2, B: 3, Protocol: epr.Cat, Gates: 1},
		{ID: 1, A: 2, B: 3, Protocol: epr.Cat, Gates: 1},
		{ID: 2, A: 2, B: 3, Protocol: epr.Cat, Gates: 1},
		{ID: 3, A: 1, B: 2, Protocol: epr.Cat, Gates: 1},
		{ID: 4, A: 0, B: 2, Protocol: epr.TP, Gates: 1},
	}
	r, err := core.Compile(demands, arch, hw.Default(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, arch
}

func TestJSONRoundTrip(t *testing.T) {
	r, _ := fig6Result(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	s, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.MakespanUS != int64(r.Makespan) {
		t.Errorf("makespan = %d, want %d", s.MakespanUS, r.Makespan)
	}
	if len(s.Demands) != len(r.Demands) || len(s.Generations) != len(r.Gens) {
		t.Errorf("counts = %d/%d, want %d/%d",
			len(s.Demands), len(s.Generations), len(r.Demands), len(r.Gens))
	}
	if s.Splits != r.Splits || s.Reconfigs != r.Reconfigs {
		t.Errorf("splits/reconfigs = %d/%d, want %d/%d", s.Splits, s.Reconfigs, r.Splits, r.Reconfigs)
	}
	counts := s.CountDemands()
	want := epr.Count(r.Demands)
	if counts != want {
		t.Errorf("CountDemands = %+v, want %+v", counts, want)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTimelineRendering(t *testing.T) {
	r, arch := fig6Result(t)
	var buf bytes.Buffer
	if err := Timeline(&buf, r, arch, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+arch.NumQPUs() {
		t.Fatalf("timeline lines = %d, want %d:\n%s", len(lines), 1+arch.NumQPUs(), out)
	}
	// B1 (QPU 2) participates in everything: its row must show in-rack,
	// cross-rack and reconfiguration activity.
	b1 := lines[3]
	for _, ch := range []string{"=", "#", "~"} {
		if !strings.Contains(b1, ch) {
			t.Errorf("QPU 2 row missing %q: %s", ch, b1)
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	arch, err := topology.NewArch("clos", 2, 2, 30, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := &core.Result{Params: hw.Default()}
	var buf bytes.Buffer
	if err := Timeline(&buf, r, arch, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty schedule output = %q", buf.String())
	}
}

func TestUtilization(t *testing.T) {
	r, arch := fig6Result(t)
	u := Utilization(r, arch)
	if len(u) != arch.NumQPUs() {
		t.Fatalf("len = %d", len(u))
	}
	// B1 (QPU 2) is the bottleneck: busiest QPU.
	for q, v := range u {
		if v < 0 || v > 1 {
			t.Errorf("QPU %d utilization %v outside [0,1]", q, v)
		}
		if q != 2 && v > u[2] {
			t.Errorf("QPU %d (%.2f) busier than bottleneck QPU 2 (%.2f)", q, v, u[2])
		}
	}
	if u[2] == 0 {
		t.Error("bottleneck has zero utilization")
	}
}

// referenceJSON is the encoding WriteJSON must reproduce: encoding/json
// with a two-space indent over Export(r).
func referenceJSON(t *testing.T, r *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Export(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingWriter records how WriteJSON hands over its output.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func checkWriteJSON(t *testing.T, name string, r *core.Result) {
	t.Helper()
	var w countingWriter
	if err := WriteJSON(&w, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if w.writes != 1 {
		t.Errorf("%s: %d writes, want the whole document in one", name, w.writes)
	}
	got, want := w.Bytes(), referenceJSON(t, r)
	if n := jsonLen(r); n != len(want) {
		t.Errorf("%s: jsonLen = %d, the document has %d bytes", name, n, len(want))
	}
	// A *bytes.Buffer is encoded into in place, after what it holds.
	var buf bytes.Buffer
	buf.WriteString("prefix")
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), append([]byte("prefix"), want...)) {
		t.Errorf("%s: WriteJSON into a bytes.Buffer differs from encoding/json", name)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Errorf("%s: WriteJSON differs from encoding/json at byte %d\ngot:  %q\nwant: %q",
		name, i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// TestWriteJSONMatchesEncodingJSON pins the direct encoder byte for byte
// to encoding/json over compiled schedules of seeded random demand
// lists (SwitchQNet and baseline options), the paper benchmarks, an
// empty result (both lists null) and out-of-range enum values.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		racks := 2 + 2*rng.Intn(2)
		arch, err := topology.NewArch([]string{"clos", "spine-leaf", "fat-tree"}[i%3], racks, 2, 30, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]epr.Demand, rng.Intn(40))
		for j := range ds {
			a := rng.Intn(arch.NumQPUs())
			b := (a + 1 + rng.Intn(arch.NumQPUs()-1)) % arch.NumQPUs()
			ds[j] = epr.Demand{
				ID: j, A: a, B: b, Protocol: epr.Protocol(rng.Intn(2)),
				CrossRack: arch.RackOf(a) != arch.RackOf(b), Gates: 1,
			}
		}
		for _, opts := range []core.Options{core.DefaultOptions(), core.BaselineOptions()} {
			r, err := core.Compile(ds, arch, hw.Default(), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkWriteJSON(t, fmt.Sprintf("random %d", i), r)
		}
	}

	arch, err := topology.NewArch("clos", 4, 2, 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"mct", "qft", "grover", "rca"} {
		c, err := circuit.Benchmark(bench, arch.TotalQubits())
		if err != nil {
			t.Fatal(err)
		}
		p, err := place.Blocks(c.NumQubits, arch)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := comm.Extract(c, p, arch, comm.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Compile(ds, arch, hw.Default(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkWriteJSON(t, bench, r)
	}

	checkWriteJSON(t, "empty", &core.Result{})
	checkWriteJSON(t, "out-of-range enums", &core.Result{
		Demands:    []epr.Demand{{ID: 0, A: 1, B: 2, Protocol: epr.Protocol(7)}},
		ReadyAt:    []hw.Time{-3},
		ConsumedAt: []hw.Time{1 << 40},
		Gens:       []core.GenEvent{{Demand: 0, Kind: core.GenKind(200), A: 1, B: 2, Channel: -1}},
		Makespan:   -1,
	})
}

// TestAppendJSONString pins the string escaping against encoding/json,
// including the cases it escapes beyond quotes and backslashes: control
// characters, HTML-sensitive bytes, U+2028/U+2029 and invalid UTF-8.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "cat", "split-in-rack", "GenKind(9)", `a"b`, `a\b`,
		"<&>", "a<b", "a>b", "a&b", "tab\there", "nl\n", "\x00", "é", "  ", "\xff\xfe", "\x7f"} {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

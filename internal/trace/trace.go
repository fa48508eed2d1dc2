// Package trace exports compiled schedules for inspection: a stable
// JSON encoding for downstream tooling and a plain-text timeline
// (a Gantt-like view per QPU) for eyeballing schedules the way the
// paper's Fig. 6 draws them.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"switchqnet/internal/core"
	"switchqnet/internal/epr"
	"switchqnet/internal/hw"
	"switchqnet/internal/topology"
)

// Schedule is the JSON shape of a compiled schedule.
type Schedule struct {
	// Makespan is the overall communication latency in microseconds.
	MakespanUS int64 `json:"makespan_us"`
	// Reconfigs counts switch reconfigurations.
	Reconfigs int `json:"reconfigs"`
	// Splits counts split cross-rack pairs.
	Splits int `json:"splits"`
	// Demands lists the program's EPR requirements.
	Demands []DemandJSON `json:"demands"`
	// Generations lists every scheduled EPR generation in start order.
	Generations []GenJSON `json:"generations"`
}

// DemandJSON is one EPR demand with its lifecycle times.
type DemandJSON struct {
	ID         int    `json:"id"`
	A          int    `json:"a"`
	B          int    `json:"b"`
	Protocol   string `json:"protocol"`
	CrossRack  bool   `json:"cross_rack"`
	ReadyUS    int64  `json:"ready_us"`
	ConsumedUS int64  `json:"consumed_us"`
}

// GenJSON is one generation interval.
type GenJSON struct {
	Demand   int    `json:"demand"`
	Kind     string `json:"kind"`
	A        int    `json:"a"`
	B        int    `json:"b"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Channel  int    `json:"channel"`
	Reconfig bool   `json:"reconfig"`
	InRack   bool   `json:"in_rack"`
}

// Export converts a Result to its JSON shape: the Schedule ReadJSON
// decodes, and the value whose encoding/json encoding WriteJSON
// reproduces.
func Export(r *core.Result) Schedule {
	s := Schedule{
		MakespanUS: int64(r.Makespan),
		Reconfigs:  r.Reconfigs,
		Splits:     r.Splits,
	}
	for i, d := range r.Demands {
		s.Demands = append(s.Demands, DemandJSON{
			ID: d.ID, A: d.A, B: d.B,
			Protocol: d.Protocol.String(), CrossRack: d.CrossRack,
			ReadyUS: int64(r.ReadyAt[i]), ConsumedUS: int64(r.ConsumedAt[i]),
		})
	}
	for _, g := range r.Gens {
		s.Generations = append(s.Generations, GenJSON{
			Demand: int(g.Demand), Kind: g.Kind.String(),
			A: int(g.A), B: int(g.B),
			StartUS: int64(g.Start), EndUS: int64(g.End),
			Channel: int(g.Channel), Reconfig: g.Reconfig, InRack: g.InRack,
		})
	}
	return s
}

// WriteJSON writes the schedule as indented JSON: byte for byte what
// encoding/json with a two-space indent writes for Export(r), encoded
// directly from r without the intermediate Schedule.
//
// The whole document goes to w in a single Write. A caller that
// collects it in a bytes.Buffer (as the daemon does for every retained
// job result) then holds one allocation sized to the document; writing
// in chunks would grow that buffer by doubling and leave up to half of
// it unused. The document's exact length is computed first, and a
// *bytes.Buffer is encoded into in place, so the document is allocated
// once, at its size.
func WriteJSON(w io.Writer, r *core.Result) error {
	n := jsonLen(r)
	var b []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(n)
		b = bb.AvailableBuffer()
	} else {
		b = make([]byte, 0, n)
	}
	_, err := w.Write(appendJSON(b, r))
	return err
}

// Literal text around each field of the encoding, shared by appendJSON
// and jsonLen.
const (
	jsonDemandOpen = "\n    {\n      \"id\": "
	jsonGenOpen    = "\n    {\n      \"demand\": "
	jsonRecClose   = "\n    }"
	jsonListClose  = "\n  ]"
)

// jsonLen returns the length of r's encoding: the fixed text of the
// document and of each record plus the width of every value.
func jsonLen(r *core.Result) int {
	n := len("{\n  \"makespan_us\": ") + intLen(int64(r.Makespan)) +
		len(",\n  \"reconfigs\": ") + intLen(int64(r.Reconfigs)) +
		len(",\n  \"splits\": ") + intLen(int64(r.Splits)) +
		len(",\n  \"demands\": ") + len(",\n  \"generations\": ") + len("\n}\n")
	if len(r.Demands) == 0 {
		n += len("null")
	} else {
		n += len("[") + len(jsonListClose) + len(r.Demands) - 1 // the separating commas
		for i, d := range r.Demands {
			n += len(jsonDemandOpen) + intLen(int64(d.ID)) +
				len(",\n      \"a\": ") + intLen(int64(d.A)) +
				len(",\n      \"b\": ") + intLen(int64(d.B)) +
				len(",\n      \"protocol\": ") + stringLen(d.Protocol.String()) +
				len(",\n      \"cross_rack\": ") + boolLen(d.CrossRack) +
				len(",\n      \"ready_us\": ") + intLen(int64(r.ReadyAt[i])) +
				len(",\n      \"consumed_us\": ") + intLen(int64(r.ConsumedAt[i])) +
				len(jsonRecClose)
		}
	}
	if len(r.Gens) == 0 {
		n += len("null")
	} else {
		n += len("[") + len(jsonListClose) + len(r.Gens) - 1
		for _, g := range r.Gens {
			n += len(jsonGenOpen) + intLen(int64(g.Demand)) +
				len(",\n      \"kind\": ") + stringLen(g.Kind.String()) +
				len(",\n      \"a\": ") + intLen(int64(g.A)) +
				len(",\n      \"b\": ") + intLen(int64(g.B)) +
				len(",\n      \"start_us\": ") + intLen(int64(g.Start)) +
				len(",\n      \"end_us\": ") + intLen(int64(g.End)) +
				len(",\n      \"channel\": ") + intLen(int64(g.Channel)) +
				len(",\n      \"reconfig\": ") + boolLen(g.Reconfig) +
				len(",\n      \"in_rack\": ") + boolLen(g.InRack) +
				len(jsonRecClose)
		}
	}
	return n
}

// intLen is the length of v in decimal.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func boolLen(v bool) int {
	if v {
		return len("true")
	}
	return len("false")
}

// stringLen is the length of s as a JSON string literal.
func stringLen(s string) int {
	if jsonPlain(s) {
		return len(s) + 2
	}
	return len(appendJSONString(nil, s))
}

// appendJSON appends r's encoding to b.
func appendJSON(b []byte, r *core.Result) []byte {
	b = append(b, "{\n  \"makespan_us\": "...)
	b = strconv.AppendInt(b, int64(r.Makespan), 10)
	b = append(b, ",\n  \"reconfigs\": "...)
	b = strconv.AppendInt(b, int64(r.Reconfigs), 10)
	b = append(b, ",\n  \"splits\": "...)
	b = strconv.AppendInt(b, int64(r.Splits), 10)
	b = append(b, ",\n  \"demands\": "...)
	if len(r.Demands) == 0 {
		b = append(b, "null"...) // Export leaves the list nil
	} else {
		b = append(b, '[')
		for i, d := range r.Demands {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, jsonDemandOpen...)
			b = strconv.AppendInt(b, int64(d.ID), 10)
			b = append(b, ",\n      \"a\": "...)
			b = strconv.AppendInt(b, int64(d.A), 10)
			b = append(b, ",\n      \"b\": "...)
			b = strconv.AppendInt(b, int64(d.B), 10)
			b = append(b, ",\n      \"protocol\": "...)
			b = appendJSONString(b, d.Protocol.String())
			b = append(b, ",\n      \"cross_rack\": "...)
			b = strconv.AppendBool(b, d.CrossRack)
			b = append(b, ",\n      \"ready_us\": "...)
			b = strconv.AppendInt(b, int64(r.ReadyAt[i]), 10)
			b = append(b, ",\n      \"consumed_us\": "...)
			b = strconv.AppendInt(b, int64(r.ConsumedAt[i]), 10)
			b = append(b, jsonRecClose...)
		}
		b = append(b, jsonListClose...)
	}
	b = append(b, ",\n  \"generations\": "...)
	if len(r.Gens) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, g := range r.Gens {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, jsonGenOpen...)
			b = strconv.AppendInt(b, int64(g.Demand), 10)
			b = append(b, ",\n      \"kind\": "...)
			b = appendJSONString(b, g.Kind.String())
			b = append(b, ",\n      \"a\": "...)
			b = strconv.AppendInt(b, int64(g.A), 10)
			b = append(b, ",\n      \"b\": "...)
			b = strconv.AppendInt(b, int64(g.B), 10)
			b = append(b, ",\n      \"start_us\": "...)
			b = strconv.AppendInt(b, int64(g.Start), 10)
			b = append(b, ",\n      \"end_us\": "...)
			b = strconv.AppendInt(b, int64(g.End), 10)
			b = append(b, ",\n      \"channel\": "...)
			b = strconv.AppendInt(b, int64(g.Channel), 10)
			b = append(b, ",\n      \"reconfig\": "...)
			b = strconv.AppendBool(b, g.Reconfig)
			b = append(b, ",\n      \"in_rack\": "...)
			b = strconv.AppendBool(b, g.InRack)
			b = append(b, jsonRecClose...)
		}
		b = append(b, jsonListClose...)
	}
	return append(b, "\n}\n"...)
}

// appendJSONString appends s as a JSON string literal, escaped exactly
// as encoding/json escapes it. The schedule's names are plain ASCII and
// take the fast path.
func appendJSONString(b []byte, s string) []byte {
	if !jsonPlain(s) {
		q, _ := json.Marshal(s) // marshaling a string cannot fail
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonPlain reports whether encoding/json writes s between quotes as is.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// ReadJSON decodes a schedule previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &s, nil
}

// Timeline renders a per-QPU text timeline of the schedule with the
// given number of character columns. Each QPU row shows its generation
// activity: '#' cross-rack, '=' in-rack, '~' reconfiguration preceding a
// generation on a channel this QPU participates in.
func Timeline(w io.Writer, r *core.Result, arch *topology.Arch, cols int) error {
	if cols < 10 {
		cols = 10
	}
	if r.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	scale := float64(cols) / float64(r.Makespan)
	rows := make([][]byte, arch.NumQPUs())
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	mark := func(q int, from, to hw.Time, ch byte) {
		lo := int(float64(from) * scale)
		hi := int(float64(to) * scale)
		if hi >= cols {
			hi = cols - 1
		}
		for x := lo; x <= hi; x++ {
			// Cross-rack marks win over in-rack, which win over reconfig.
			cur := rows[q][x]
			if cur == '#' || (cur == '=' && ch == '~') {
				continue
			}
			rows[q][x] = ch
		}
	}
	for _, g := range r.Gens {
		ch := byte('=')
		if !g.InRack {
			ch = '#'
		}
		if g.Reconfig {
			start := g.Start - r.Params.ReconfigLatency
			if start < 0 {
				start = 0
			}
			mark(int(g.A), start, g.Start, '~')
			mark(int(g.B), start, g.Start, '~')
		}
		mark(int(g.A), g.Start, g.End, ch)
		mark(int(g.B), g.Start, g.End, ch)
	}
	fmt.Fprintf(w, "timeline: 0 .. %.1f ms  (~ reconfig, = in-rack, # cross-rack)\n", float64(r.Makespan)/1000)
	for q, row := range rows {
		if _, err := fmt.Fprintf(w, "QPU %2d |%s|\n", q, row); err != nil {
			return err
		}
	}
	return nil
}

// Utilization summarizes per-QPU activity: the fraction of the makespan
// each QPU spends generating EPR pairs.
func Utilization(r *core.Result, arch *topology.Arch) []float64 {
	busy := make([]hw.Time, arch.NumQPUs())
	type span struct{ s, e hw.Time }
	perQPU := make([][]span, arch.NumQPUs())
	for _, g := range r.Gens {
		perQPU[g.A] = append(perQPU[g.A], span{g.Start, g.End})
		perQPU[g.B] = append(perQPU[g.B], span{g.Start, g.End})
	}
	for q, spans := range perQPU {
		sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		var cur span
		for i, sp := range spans {
			if i == 0 || sp.s > cur.e {
				busy[q] += cur.e - cur.s
				cur = sp
				continue
			}
			if sp.e > cur.e {
				cur.e = sp.e
			}
		}
		busy[q] += cur.e - cur.s
	}
	out := make([]float64, arch.NumQPUs())
	if r.Makespan == 0 {
		return out
	}
	for q := range out {
		out[q] = float64(busy[q]) / float64(r.Makespan)
	}
	return out
}

// CountDemands tallies a JSON schedule's demand mix, mirroring
// epr.Count for decoded schedules.
func (s *Schedule) CountDemands() epr.Counts {
	var c epr.Counts
	c.Total = len(s.Demands)
	for _, d := range s.Demands {
		if d.CrossRack {
			c.CrossRack++
		} else {
			c.InRack++
		}
		if d.Protocol == "cat" {
			c.Cat++
		} else {
			c.TP++
		}
	}
	return c
}

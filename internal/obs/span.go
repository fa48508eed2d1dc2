package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer collects phase spans into a tree. Spans that end under the
// same parent with the same name are merged (duration summed, count
// incremented, children merged recursively), so instrumenting a phase
// that runs thousands of times — a scheduling pass, an executor retry —
// keeps the tree bounded by the number of distinct phase names rather
// than the number of executions.
//
// All operations take the tracer's mutex, so spans may start and end
// from concurrent goroutines (parallel sweep cells, concurrent
// pipelines). A nil *Tracer hands out nil spans; every method on a nil
// span is a no-op.
type Tracer struct {
	mu   sync.Mutex
	root Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{}
	t.root.tracer = t
	return t
}

// Span is one timed phase. Start a child with StartSpan, finish with
// End. Nil-safe.
type Span struct {
	tracer   *Tracer
	parent   *Span
	name     string
	start    time.Time
	dur      time.Duration
	count    int64
	ended    bool
	children []*Span
}

// StartSpan starts a top-level span (a child of the tracer's implicit
// root). A nil tracer returns a nil span.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.root.StartSpan(name)
}

// StartSpan starts a child span. A nil span returns a nil child.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	child := &Span{tracer: t, parent: s, name: name, start: time.Now(), count: 1}
	s.children = append(s.children, child)
	return child
}

// Mark records an instantaneous (zero-duration) child event, used for
// counted occurrences inside a phase (e.g. the executor's recovery
// ladder rungs). Merged by name like any other span.
func (s *Span) Mark(name string) {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	child := &Span{tracer: t, parent: s, name: name, count: 1, ended: true}
	s.children = append(s.children, child)
	s.mergeEnded(child)
}

// End stops the span, fixing its duration, and merges it into an
// earlier ended sibling of the same name if one exists. Ending a span
// twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.dur = time.Since(s.start)
	s.ended = true
	if s.parent != nil {
		s.parent.mergeEnded(s)
	}
}

// mergeEnded folds child (which must be ended and present in
// p.children) into another ended sibling with the same name, if any.
// The sibling may sit before or after child: an earlier-started span
// can end after a later-started one, and must still merge into it.
// Callers hold the tracer mutex.
func (p *Span) mergeEnded(child *Span) {
	for _, sib := range p.children {
		if sib == child {
			continue
		}
		if sib.ended && sib.name == child.name {
			sib.absorb(child)
			for i, c := range p.children {
				if c == child {
					p.children = append(p.children[:i], p.children[i+1:]...)
					break
				}
			}
			return
		}
	}
}

// absorb merges b into a: durations and counts sum; b's children merge
// into a's by name (still-open children are re-parented).
func (a *Span) absorb(b *Span) {
	a.dur += b.dur
	a.count += b.count
	for _, bc := range b.children {
		merged := false
		if bc.ended {
			for _, ac := range a.children {
				if ac.ended && ac.name == bc.name {
					ac.absorb(bc)
					merged = true
					break
				}
			}
		}
		if !merged {
			bc.parent = a
			a.children = append(a.children, bc)
		}
	}
	b.children = nil
}

// PhaseTotal is one aggregated tree node in a Snapshot.
type PhaseTotal struct {
	// Path is the slash-joined span path from the root, e.g.
	// "cell/compile/schedule/pass".
	Path string
	// Count is the number of merged executions.
	Count int64
	// Total is the summed wall-clock duration (zero for marks).
	Total time.Duration
}

// Snapshot returns the aggregated tree as a flat path-keyed list,
// sorted by path. Open spans report the duration accumulated so far.
func (t *Tracer) Snapshot() []PhaseTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []PhaseTotal
	var walk func(s *Span, prefix string)
	walk = func(s *Span, prefix string) {
		for _, c := range s.children {
			path := prefix + c.name
			d := c.dur
			if !c.ended {
				d += time.Since(c.start)
			}
			out = append(out, PhaseTotal{Path: path, Count: c.count, Total: d})
			walk(c, path+"/")
		}
	}
	walk(&t.root, "")
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WriteTree renders the span tree: one line per merged phase, indented
// by depth, with execution count, total duration and mean. Siblings
// print in first-start order. A nil tracer writes nothing.
func (t *Tracer) WriteTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		for _, c := range s.children {
			d := c.dur
			suffix := ""
			if !c.ended {
				d += time.Since(c.start)
				suffix = " (open)"
			}
			label := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), c.name)
			if c.count > 1 {
				fmt.Fprintf(&b, "%-40s ×%-6d %10s  (avg %s)%s\n",
					label, c.count, fmtDur(d), fmtDur(d/time.Duration(c.count)), suffix)
			} else {
				fmt.Fprintf(&b, "%-40s %7s %10s%s\n", label, "", fmtDur(d), suffix)
			}
			walk(c, depth+1)
		}
	}
	walk(&t.root, 0)
	t.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtDur renders a duration with a stable, readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d == 0:
		return "-"
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

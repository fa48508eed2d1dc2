package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePromGolden pins the exposition format byte-for-byte: sorted
// families, sorted series, escaped help/labels, cumulative histogram
// buckets with _sum and _count.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last", "Sorted last despite being registered first.").Add(7)
	c := r.Counter("app_requests_total", "Requests by outcome.", L("outcome", "hit"))
	c.Inc()
	c.Inc()
	r.Counter("app_requests_total", "Requests by outcome.", L("outcome", "miss")).Add(3)
	r.Gauge("app_temperature", "A gauge with a\nnewline and \\ backslash in help.").Set(36.5)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 0.5, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.7)
	h.Observe(99)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 2
app_latency_seconds_bucket{le="0.5"} 2
app_latency_seconds_bucket{le="1"} 3
app_latency_seconds_bucket{le="+Inf"} 4
app_latency_seconds_sum 99.8
app_latency_seconds_count 4
# HELP app_requests_total Requests by outcome.
# TYPE app_requests_total counter
app_requests_total{outcome="hit"} 2
app_requests_total{outcome="miss"} 3
# HELP app_temperature A gauge with a\nnewline and \\ backslash in help.
# TYPE app_temperature gauge
app_temperature 36.5
# HELP zz_last Sorted last despite being registered first.
# TYPE zz_last counter
zz_last 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePromParses runs a line-level validator over a rendered
// registry: every line must be a comment or `name[{labels}] value`,
// TYPE must precede its samples, and histogram buckets must be
// cumulative and end in +Inf.
func TestWritePromParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", L("a", `quoted "value" with \ slash`)).Inc()
	r.Gauge("g", "").Set(-1.25)
	r.Histogram("h_seconds", "h", DefDurationBuckets, L("stage", "compile")).Observe(0.3)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, b.String())
}

// validateExposition is a minimal checker for the text exposition
// format (version 0.0.4), shared with the CLI golden tests. Histogram
// buckets must be cumulative within each series (a family plus its
// non-le labels), and each series' +Inf bucket must equal its _count.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	if err := checkExposition(text); err != nil {
		t.Fatal(err)
	}
}

// checkExposition is validateExposition's error-returning core.
func checkExposition(text string) error {
	typed := map[string]string{}
	lastBucket := map[string]int64{}
	infBucket := map[string]int64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			return fmt.Errorf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				return fmt.Errorf("line %d: unknown type %q", ln+1, f[3])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment %q", ln+1, line)
		}
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		var labels []string
		if rest != "" && rest[0] == '{' {
			var ok bool
			labels, rest, ok = splitLabels(rest)
			if !ok {
				return fmt.Errorf("line %d: malformed label set: %q", ln+1, line)
			}
		}
		value := strings.TrimSpace(rest)
		if value == "" {
			return fmt.Errorf("line %d: missing value: %q", ln+1, line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if bt, ok := typed[strings.TrimSuffix(name, suffix)]; ok && bt == "histogram" {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("line %d: sample %q before its TYPE", ln+1, name)
		}
		if base == name {
			continue
		}
		le, others := "", make([]string, 0, len(labels))
		for _, l := range labels {
			if strings.HasPrefix(l, `le="`) {
				le = strings.TrimSuffix(strings.TrimPrefix(l, `le="`), `"`)
				continue
			}
			others = append(others, l)
		}
		key := base + "{" + strings.Join(others, ",") + "}"
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				return fmt.Errorf("line %d: bucket without le label: %q", ln+1, line)
			}
			v, err := parseCount(ln, value)
			if err != nil {
				return err
			}
			if v < lastBucket[key] {
				return fmt.Errorf("line %d: bucket counts not cumulative in %s (%d < %d)", ln+1, key, v, lastBucket[key])
			}
			lastBucket[key] = v
			if le == "+Inf" {
				infBucket[key] = v
			}
		case strings.HasSuffix(name, "_count"):
			inf, ok := infBucket[key]
			if !ok {
				return fmt.Errorf("line %d: %s_count before its +Inf bucket", ln+1, key)
			}
			v, err := parseCount(ln, value)
			if err != nil {
				return err
			}
			if v != inf {
				return fmt.Errorf("line %d: %s_count = %d, +Inf bucket = %d", ln+1, key, v, inf)
			}
			// A later series with the same labels starts afresh.
			delete(lastBucket, key)
			delete(infBucket, key)
		}
	}
	return nil
}

// splitLabels splits a rendered label set `{k1="v1",k2="v2"} rest` into
// its pairs (escapes kept verbatim) and the text after the closing
// brace. ok is false when the set is malformed.
func splitLabels(s string) (pairs []string, rest string, ok bool) {
	i := 1 // past '{'
	for i < len(s) && s[i] != '}' {
		start := i
		eq := strings.Index(s[i:], `="`)
		if eq <= 0 {
			return nil, "", false
		}
		i += eq + 2
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return nil, "", false
		}
		i++ // closing quote
		pairs = append(pairs, s[start:i])
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	if i >= len(s) {
		return nil, "", false
	}
	return pairs, s[i+1:], true
}

// parseCount parses a non-negative integer sample value.
func parseCount(ln int, value string) (int64, error) {
	var v int64
	for _, c := range value {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("line %d: non-integer count %q", ln+1, value)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// TestCheckExpositionRejects pins what the validator catches: buckets
// that shrink within one series, a +Inf bucket that disagrees with
// _count, and _count without a +Inf bucket. Buckets of two series of
// one family are checked separately, so a series may start below the
// previous series' +Inf.
func TestCheckExpositionRejects(t *testing.T) {
	const head = "# TYPE h histogram\n"
	good := head +
		`h_bucket{k="a",le="1"} 5` + "\n" + `h_bucket{k="a",le="+Inf"} 9` + "\n" +
		`h_sum{k="a"} 3` + "\n" + `h_count{k="a"} 9` + "\n" +
		`h_bucket{k="b",le="1"} 1` + "\n" + `h_bucket{k="b",le="+Inf"} 2` + "\n" +
		`h_sum{k="b"} 1` + "\n" + `h_count{k="b"} 2` + "\n"
	if err := checkExposition(good); err != nil {
		t.Fatalf("valid two-series histogram rejected: %v", err)
	}
	bad := map[string]string{
		"not cumulative": head + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 4` + "\n" + `h_count 4` + "\n",
		"inf != count":   head + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 6` + "\n" + `h_count 7` + "\n",
		"no inf bucket":  head + `h_bucket{le="1"} 5` + "\n" + `h_count 5` + "\n",
		"bad label set":  head + `h_bucket{le="1} 5` + "\n",
	}
	for name, text := range bad {
		if err := checkExposition(text); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

// TestNilSafety exercises every nil receiver: no panics, no effects.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must report zero")
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry rendered %q, err %v", b.String(), err)
	}

	var tr *Tracer
	sp := tr.StartSpan("a")
	sp2 := sp.StartSpan("b")
	sp.Mark("m")
	sp2.End()
	sp.End()
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil tracer snapshot = %v", got)
	}
	if err := tr.WriteTree(&b); err != nil {
		t.Error(err)
	}

	var o *Obs
	o.StartSpan("x").End()
	o.Mark("y")
	if o.Under(nil) != nil || o.Reg() != nil {
		t.Error("nil Obs must stay nil")
	}
	if New(nil, nil) != nil {
		t.Error("New(nil, nil) must return nil")
	}
}

// TestRegistryPanicsOnMisuse pins the fail-fast contract for
// programming errors: invalid names and kind conflicts panic.
func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "invalid name", func() { r.Counter("9bad", "") })
	mustPanic(t, "invalid label", func() { r.Counter("ok", "", L("__reserved", "v")) })
	r.Counter("twice", "")
	mustPanic(t, "kind conflict", func() { r.Gauge("twice", "") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestSpanMerging verifies same-name siblings merge with summed counts
// and that nested children merge recursively.
func TestSpanMerging(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 100; i++ {
		s := tr.StartSpan("pass")
		s.Mark("retry")
		inner := s.StartSpan("route")
		inner.End()
		s.End()
	}
	snap := tr.Snapshot()
	want := map[string]int64{"pass": 100, "pass/retry": 100, "pass/route": 100}
	if len(snap) != len(want) {
		t.Fatalf("got %d phases %v, want %d", len(snap), snap, len(want))
	}
	for _, p := range snap {
		if want[p.Path] != p.Count {
			t.Errorf("phase %q count %d, want %d", p.Path, p.Count, want[p.Path])
		}
	}
	var b strings.Builder
	if err := tr.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "×100") {
		t.Errorf("tree rendering lacks merged count:\n%s", b.String())
	}
}

// TestSpanParentEndsFirst covers the re-parenting path: a child that
// outlives its (merged-away) parent must still land in the tree.
func TestSpanParentEndsFirst(t *testing.T) {
	tr := NewTracer()
	a := tr.StartSpan("phase")
	a.End()
	b := tr.StartSpan("phase")
	child := b.StartSpan("late")
	b.End() // b merges into a while child is open
	child.End()
	snap := tr.Snapshot()
	counts := map[string]int64{}
	for _, p := range snap {
		counts[p.Path] = p.Count
	}
	if counts["phase"] != 2 || counts["phase/late"] != 1 {
		t.Errorf("unexpected snapshot: %v", snap)
	}
}

// TestSpanEndsOutOfStartOrder pins the merge rule when an earlier-
// started span ends after a later-started same-name sibling: the two
// must still merge into one node, whichever ended first.
func TestSpanEndsOutOfStartOrder(t *testing.T) {
	tr := NewTracer()
	first := tr.StartSpan("work")
	second := tr.StartSpan("work")
	second.End()
	first.End()
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Path != "work" || snap[0].Count != 2 {
		t.Errorf("snapshot = %v, want one merged work node with count 2", snap)
	}
}

// TestConcurrentUse hammers the registry and tracer from many
// goroutines (run under -race in CI).
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	o := New(r, tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("work_total", "")
			h := r.Histogram("work_seconds", "", DefDurationBuckets)
			for i := 0; i < 200; i++ {
				sp := o.StartSpan("work")
				c.Inc()
				h.Observe(0.001)
				sp.Mark("tick")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("work_total", "").Value(); got != 8*200 {
		t.Errorf("counter = %d, want %d", got, 8*200)
	}
	snap := tr.Snapshot()
	var total int64
	for _, p := range snap {
		if p.Path == "work" {
			total = p.Count
		}
	}
	if total != 8*200 {
		t.Errorf("merged span count = %d, want %d", total, 8*200)
	}
}

// TestSnapshotDiffStable verifies Snapshot is usable for per-experiment
// deltas: counts only grow, and an open span reports progress.
func TestSnapshotDiffStable(t *testing.T) {
	tr := NewTracer()
	open := tr.StartSpan("outer")
	time.Sleep(time.Millisecond)
	s1 := tr.Snapshot()
	open.StartSpan("inner").End()
	s2 := tr.Snapshot()
	find := func(s []PhaseTotal, path string) (PhaseTotal, bool) {
		for _, p := range s {
			if p.Path == path {
				return p, true
			}
		}
		return PhaseTotal{}, false
	}
	o1, ok1 := find(s1, "outer")
	o2, ok2 := find(s2, "outer")
	if !ok1 || !ok2 || o2.Total < o1.Total {
		t.Errorf("open span did not accumulate: %v -> %v", o1, o2)
	}
	if _, ok := find(s2, "outer/inner"); !ok {
		t.Error("nested phase missing from snapshot")
	}
	open.End()
}

// TestScrapeRacesRegistration is the live-/metrics-endpoint guard: a
// scrape loop renders the registry while other goroutines register new
// series (mutating the family maps) and update metric values. Run under
// -race this catches torn snapshots; each scrape must also be valid
// exposition text even mid-update.
func TestScrapeRacesRegistration(t *testing.T) {
	r := NewRegistry()
	// Seed one series so every scrape (including the last) is non-empty
	// even if the racing registrars haven't been scheduled yet.
	r.Counter("scrape_race_total", "requests", L("worker", "main")).Inc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// New label values force fresh series registrations, the
				// mutation path a scrape can race with.
				l := L("worker", fmt.Sprintf("w%d_%d", w, i%17))
				r.Counter("scrape_race_total", "requests", l).Inc()
				r.Gauge("scrape_race_depth", "queue depth", l).Set(float64(i % 7))
				r.Histogram("scrape_race_seconds", "latency", DefDurationBuckets, l).Observe(0.001 * float64(i%9))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 && b.Len() > 0 {
			validateExposition(t, b.String())
		}
	}
	close(stop)
	wg.Wait()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, b.String())
}

// TestHistogramExpositionConsistent pins the torn-read fix: while
// observations stream in, every scrape's +Inf bucket must equal its
// _count (the validator checks bucket monotonicity; this checks the
// count identity scrapers like Prometheus rely on).
func TestHistogramExpositionConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", DefDurationBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(0.0001 * float64(i%200))
		}
	}()
	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count int64
		var haveInf, haveCount bool
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, `h_seconds_bucket{le="+Inf"} `) {
				fmt.Sscanf(strings.TrimPrefix(line, `h_seconds_bucket{le="+Inf"} `), "%d", &inf)
				haveInf = true
			}
			if strings.HasPrefix(line, "h_seconds_count ") {
				fmt.Sscanf(strings.TrimPrefix(line, "h_seconds_count "), "%d", &count)
				haveCount = true
			}
		}
		if !haveInf || !haveCount {
			t.Fatalf("scrape %d: missing histogram series:\n%s", i, b.String())
		}
		if inf != count {
			t.Fatalf("scrape %d: +Inf bucket %d != count %d", i, inf, count)
		}
	}
	close(stop)
	wg.Wait()
}

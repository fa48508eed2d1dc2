package main

import (
	"bufio"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"switchqnet/internal/stats"
)

// geomean returns the geometric mean of positive values (0 for none).
// Request latencies span two orders of magnitude across the instance
// mix, so the geometric mean weighs a 10% change on a small request
// the same as on a large one, and does not sit on a class boundary the
// way a plain median does.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean returns the arithmetic mean (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tail is a tail-latency figure: the nearest-rank percentile used and
// how many samples it was taken over. A per-class tail (classTail) also
// states how many classes it covers and the smallest class's size; its
// Beyond is the smallest class's count beyond the percentile.
type tail struct {
	Metric     string  `json:"metric"`
	Percentile int     `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"samples_beyond"`
	Classes    int     `json:"classes,omitempty"`
	MinClass   int     `json:"min_class_samples,omitempty"`
	Value      float64 `json:"value"`
}

// tailPercentile returns the highest integer percentile, at most want,
// that leaves at least minBeyond of n samples strictly above its
// nearest rank. Each workload fixes want so that runs of different
// lengths compare the same quantile; the cap only bites on a run too
// short to support it, and never goes below the median.
func tailPercentile(n, want, minBeyond int) int {
	for p := want; p > 50; p-- {
		if n-(n*p+99)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// tailOf computes the tail figure of xs (which it sorts).
func tailOf(metric string, xs []float64, want int) tail {
	sort.Float64s(xs)
	p := tailPercentile(len(xs), want, 10)
	rank := (len(xs)*p + 99) / 100
	return tail{Metric: metric, Percentile: p, Samples: len(xs), Beyond: len(xs) - rank,
		Value: stats.Percentile(xs, p)}
}

// classMinBeyond is how many samples the smallest class keeps above a
// per-class tail percentile: the tail is never a class's maximum or
// its one outlier. Classes hold tens of samples in a 30 s run, not the
// hundreds a pooled tail's ten-beyond rule needs.
const classMinBeyond = 2

// classTail is the tail figure of requests grouped into classes of like
// requests (one job kind on one program, one adapt visit): the
// geometric mean over the non-empty classes of each class's
// nearest-rank percentile. A percentile of the pooled requests sits
// wherever the mix puts a class boundary, so it jumps when a seed draws
// a few more or fewer requests of the slowest class; a class's own
// percentile moves only with that class's latency. The percentile is
// capped, as in tailOf, so that the smallest class keeps minBeyond
// samples above it. It sorts each class.
func classTail(metric string, classes [][]float64, want, minBeyond int) tail {
	tl := tail{Metric: metric, Percentile: want}
	var sizes []int
	for _, xs := range classes {
		if len(xs) > 0 {
			sizes = append(sizes, len(xs))
			tl.Samples += len(xs)
		}
	}
	if len(sizes) == 0 {
		return tl
	}
	tl.Classes, tl.MinClass = len(sizes), slices.Min(sizes)
	tl.Percentile = tailPercentile(tl.MinClass, want, minBeyond)
	tl.Beyond = tl.MinClass - (tl.MinClass*tl.Percentile+99)/100
	var per []float64
	for _, xs := range classes {
		if len(xs) > 0 {
			sort.Float64s(xs)
			per = append(per, stats.Percentile(xs, tl.Percentile))
		}
	}
	tl.Value = geomean(per)
	return tl
}

// median returns the median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// call is one timed call into a layer's public function. With alloc it
// also reports the bytes the call allocated (a TotalAlloc delta, which
// costs a stop-the-world ReadMemStats on each side, so only traced runs
// ask for it).
func call(alloc bool, f func() error) (float64, float64, error) {
	var m0, m1 goruntime.MemStats
	if alloc {
		goruntime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	err := f()
	d := ms(time.Since(t0))
	if !alloc {
		return d, 0, err
	}
	goruntime.ReadMemStats(&m1)
	return d, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
}

// layerSet accumulates per-layer metrics over a traced run: sums that
// are divided by a count when reported. Names follow the repository's
// package names ("circuit.gen_ms", "server.queue_wait_ms", ...).
type layerSet struct {
	sum map[string]float64
	n   map[string]int
}

func newLayerSet() *layerSet {
	return &layerSet{sum: map[string]float64{}, n: map[string]int{}}
}

// add records one observation of a per-request layer metric.
func (l *layerSet) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

// merge adds o's observations to l.
func (l *layerSet) merge(o *layerSet) {
	for k, v := range o.sum {
		l.sum[k] += v
		l.n[k] += o.n[k]
	}
}

// avg returns the mean observation of name (0 when never observed,
// which is how a layer the workload does not reach reads).
func (l *layerSet) avg(name string) float64 {
	if l.n[name] == 0 {
		return 0
	}
	return l.sum[name] / float64(l.n[name])
}

// gcSnap is the Go runtime's GC and allocation counters at one instant.
type gcSnap struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcSnap {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return gcSnap{cycles: m.NumGC, pauseNS: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// goMetrics reports the runtime counters between two snapshots, per
// request: GC cycles, GC pause time and bytes allocated.
func goMetrics(a, b gcSnap, requests int) map[string]float64 {
	n := float64(max(requests, 1))
	return map[string]float64{
		"go.gc_cycles":   float64(b.cycles-a.cycles) / n,
		"go.gc_pause_ms": float64(b.pauseNS-a.pauseNS) / 1e6 / n,
		"go.alloc_mb":    float64(b.alloc-a.alloc) / (1 << 20) / n,
	}
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal share of them.
type cpuTimes struct{ total, steal uint64 }

// readCPU reads /proc/stat; ok is false where it does not exist.
func readCPU() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var c cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not summed again.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, true
}

// stealShare is the host's CPU steal time over [a, b] as a share of all
// CPU time, so a run on a noisy host can be told apart from a slow
// program. It is -1 when /proc/stat is unavailable.
func stealShare(a, b cpuTimes, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// zeroLayers returns every per-layer metric at 0, the reading of a
// layer the workload does not reach.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// unattributed reconciles layer time with wall clock: the share of the
// traced requests' time ("request_ms") that no timed layer call covers.
func unattributed(l *layerSet, layerTimes []string) float64 {
	req := l.sum["request_ms"]
	if req == 0 {
		return 0
	}
	covered := 0.0
	for _, k := range layerTimes {
		covered += l.sum[k]
	}
	return 1 - covered/req
}

// runPair runs one request untraced and, in a traced run, once more
// traced on the same inputs, alternating by i which of the two goes
// first so neither side systematically inherits a warmer process. The
// pairs give the tracing overhead without mixing it up with the
// request mix.
func runPair[T any](trace bool, i int, f func(traced bool) (T, error)) (plain, traced T, err error) {
	if !trace {
		plain, err = f(false)
		return plain, traced, err
	}
	if i%2 == 1 {
		if traced, err = f(true); err == nil {
			plain, err = f(false)
		}
		return plain, traced, err
	}
	if plain, err = f(false); err == nil {
		traced, err = f(true)
	}
	return plain, traced, err
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// morePasses reports whether a run goes on to request i. Runs measure
// whole passes of passLen requests (a deck, or every cell once), and
// start another pass only while the window is open: every run then has
// the same request mix whatever its length, and it always completes
// the first pass, which the deterministic metrics are taken over.
func morePasses(i, passLen int, start time.Time, window time.Duration) bool {
	return i%passLen != 0 || i == 0 || time.Since(start) < window
}

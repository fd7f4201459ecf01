package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// epochSpan names the per-epoch root span every workload opens; the
// layer spans of one epoch share its epoch index.
const epochSpan = "epoch"

// span is one timed call into a layer. Times are offsets from the
// tracer's origin on the monotonic clock.
type span struct {
	name       string
	epoch      int // -1 for set-up spans outside any epoch
	parent     int // index of the parent span, -1 for none
	start, end time.Duration
}

// tracer keeps the benchmark's spans in memory. It is safe for
// concurrent use: the sharded market calls the policy from several
// workers at once.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// side names layers that run beside the epoch's blocking path
	// (another agent's view of the same epoch) and so are left out of
	// the attributed time.
	side map[string]bool
	// warm marks warm-up epochs, left out of the per-epoch statistics
	// as the untraced runs leave them out of the latency window.
	warm map[int]bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), side: map[string]bool{}, warm: map[int]bool{}}
}

// warmUp marks epoch as a warm-up epoch.
func (t *tracer) warmUp(epoch int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.warm[epoch] = true
	t.mu.Unlock()
}

// begin opens a span and returns its handle. A nil tracer returns -1.
func (t *tracer) begin(name string, epoch, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, epoch: epoch, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name string, epoch, parent int, fn func() error) error {
	id := t.begin(name, epoch, parent)
	err := fn()
	t.end(id)
	return err
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// coverage returns the total length of the union of ivs.
func coverage(ivs []interval) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes computes, per epoch, each layer's self time: the wall time
// its spans cover minus the time their child spans cover. Concurrent
// spans of one layer count once, so self times of one epoch add up to
// at most its wall time. The epoch root's self time is the part of it
// no attributed layer span covers, whether or not those spans were
// opened as its children (a wire epoch's server spans run on another
// goroutine). Set-up spans are grouped under epoch -1.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		epoch int
		name  string
	}
	own := map[key][]interval{}
	kids := map[key][]interval{}
	layers := map[int][]interval{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		iv := interval{s.start, s.end}
		k := key{s.epoch, s.name}
		own[k] = append(own[k], iv)
		if s.parent >= 0 && s.name != epochSpan {
			p := t.spans[s.parent]
			kids[key{s.epoch, p.name}] = append(kids[key{s.epoch, p.name}], iv)
		}
		if s.name != epochSpan && !t.side[s.name] {
			layers[s.epoch] = append(layers[s.epoch], iv)
		}
	}
	for k, roots := range own {
		if k.name != epochSpan {
			continue
		}
		var inside []interval
		for _, iv := range layers[k.epoch] {
			for _, r := range roots {
				lo, hi := max(iv.lo, r.lo), min(iv.hi, r.hi)
				if lo < hi {
					inside = append(inside, interval{lo, hi})
				}
			}
		}
		kids[k] = inside
	}
	out := map[int]map[string]time.Duration{}
	for k, ivs := range own {
		if out[k.epoch] == nil {
			out[k.epoch] = map[string]time.Duration{}
		}
		out[k.epoch][k.name] = coverage(ivs) - coverage(kids[k])
	}
	return out
}

// layerStat summarizes one layer's self time over the epochs it ran in.
type layerStat struct {
	epochs int
	median float64 // seconds
	mean   float64 // seconds
}

// layerStats summarizes the self times of every layer. The epoch root's
// "self time" is the part of the epoch no layer span covers.
func (t *tracer) layerStats() (map[string]layerStat, []float64) {
	per := t.selfTimes()
	samples := map[string][]float64{}
	var attributed []float64
	t.mu.Lock()
	warm := t.warm
	t.mu.Unlock()
	for epoch, layers := range per {
		if warm[epoch] {
			continue
		}
		if epoch < 0 {
			for name, d := range layers {
				samples[name] = append(samples[name], d.Seconds())
			}
			continue
		}
		var sum time.Duration
		for name, d := range layers {
			samples[name] = append(samples[name], d.Seconds())
			if name != epochSpan && !t.side[name] {
				sum += d
			}
		}
		attributed = append(attributed, sum.Seconds())
	}
	stats := map[string]layerStat{}
	for name, xs := range samples {
		var total float64
		for _, x := range xs {
			total += x
		}
		stats[name] = layerStat{epochs: len(xs), median: median(xs), mean: total / float64(len(xs))}
	}
	return stats, attributed
}

// epochDurations returns the traced epoch root spans' durations.
func (t *tracer) epochDurations() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == epochSpan && s.end >= 0 && !t.warm[s.epoch] {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// chromeEpochs bounds the epochs exported to the Chrome trace: a wire
// run completes tens of thousands of epochs, and a trace viewer needs
// only enough of them to show the shape of one.
const chromeEpochs = 200

// snapshot converts the spans into a telemetry span tree under one
// root, each span tagged with its epoch and a per-epoch trace ID, so
// telemetry.WriteChromeTrace can export it. Spans of epochs beyond
// chromeEpochs are left out.
func (t *tracer) snapshot(rootName string, seed int64) *telemetry.SpanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	originUS := t.origin.UnixMicro()
	root := &telemetry.SpanSnapshot{Name: rootName, StartUnixUS: originUS}
	nodes := make([]*telemetry.SpanSnapshot, len(t.spans))
	var last time.Duration
	for i, s := range t.spans {
		if s.epoch >= chromeEpochs {
			continue
		}
		end := s.end
		if end < 0 {
			end = s.start
		}
		if end > last {
			last = end
		}
		nodes[i] = &telemetry.SpanSnapshot{
			Name:        s.name,
			StartUnixUS: originUS + s.start.Microseconds(),
			DurationUS:  (end - s.start).Microseconds(),
			Attrs:       []telemetry.Attr{{Key: "epoch", Value: s.epoch}},
			Trace:       fmt.Sprintf("%016x", uint64(parallel.SplitSeed(seed, int64(s.epoch)))),
		}
	}
	for i, s := range t.spans {
		if nodes[i] == nil {
			continue
		}
		if s.parent >= 0 {
			p := nodes[s.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			root.Children = append(root.Children, nodes[i])
		}
	}
	root.DurationUS = last.Microseconds()
	return root
}

// write exports the Chrome trace and the self-time table into dir.
func (t *tracer) write(dir, base string, seed int64, host hostInfo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, t.snapshot("perfbench "+base, seed)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := os.Create(filepath.Join(dir, base+".selftime.txt"))
	if err != nil {
		return err
	}
	t.writeTable(g, host)
	return g.Close()
}

// writeTable prints every layer's self time, largest median first.
func (t *tracer) writeTable(w io.Writer, host hostInfo) {
	stats, _ := t.layerStats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		if stats[names[a]].median != stats[names[b]].median {
			return stats[names[a]].median > stats[names[b]].median
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "# %s seed=%d cpu=%q nproc=%d gomaxprocs=%d %s\n",
		host.Workload, host.Seed, host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion)
	fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "layer", "epochs", "median_self_s", "mean_self_s")
	for _, name := range names {
		s := stats[name]
		label := name
		if name == epochSpan {
			label = "(unattributed)"
		}
		fmt.Fprintf(w, "%-28s %8d %14.6f %14.6f\n", label, s.epochs, s.median, s.mean)
	}
}

// timedPolicy wraps a policy so every Assign call gets a span under the
// span currently set as parent. Name and results are the inner
// policy's, so the market it is handed to behaves identically.
type timedPolicy struct {
	inner  policy.Policy
	tr     *tracer
	epoch  int
	parent int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Assign(d [][]float64, ctx policy.Context) (matching.Matching, error) {
	id := p.tr.begin("policy.assign", p.epoch, p.parent)
	defer p.tr.end(id)
	return p.inner.Assign(d, ctx)
}

// under points the next Assign calls at epoch's span parent.
func (p *timedPolicy) under(epoch, parent int) { p.epoch, p.parent = epoch, parent }

// newRNG returns a seeded stream. Seeded with frameworkSeed it is the
// stream the framework's market draws from — core seeds its *rand.Rand
// with Config.Seed — which the composed pipeline must consume
// identically to reproduce the framework's matchings.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cooper/internal/arch"
	"cooper/internal/telemetry"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
// Names ending in "_s" that are not listed in derivedTimes are the
// median per-epoch self time of the span of the same name (without the
// suffix), over the epochs in which that layer ran; set-up layers have
// one span each. Every traced run reports every metric, with 0 for a
// layer the workload leaves idle.
var layerMetrics = []layerMetric{
	{"policy.assign_s", "s"},
	{"matching.proposals", "count"},
	{"matching.rotations", "count"},
	{"agent.exchange_s", "s"},
	{"agent.blocking_pairs", "count"},
	{"agent.breakaways", "count"},
	{"profiler.expand_s", "s"},
	{"profiler.dense_s", "s"},
	{"profiler.campaign_s", "s"},
	{"profiler.records", "count"},
	{"workload.catalog_s", "s"},
	{"recommend.complete_s", "s"},
	{"recommend.fill_iters", "count"},
	{"recommend.sim_pairs_recomputed", "count"},
	{"recommend.sim_pairs_skipped", "count"},
	{"recommend.preference_accuracy", "ratio"},
	{"policy.true_penalties_s", "s"},
	{"arch.paircache_hit_rate", "ratio"},
	{"arch.paircache_misses", "count"},
	{"cluster.dispatch_s", "s"},
	{"cluster.colocations", "count"},
	{"shard.partition_s", "s"},
	{"shard.clear_s", "s"},
	{"shard.repair_s", "s"},
	{"shard.size_max_over_mean", "ratio"},
	{"shard.refine_rounds", "count"},
	{"shard.refine_trades", "count"},
	{"rematch.apply_s", "s"},
	{"rematch.commit_s", "s"},
	{"rematch.recommendations_s", "s"},
	{"rematch.neighborhood", "count"},
	{"rematch.changed", "count"},
	{"rematch.useful_ratio", "ratio"},
	{"rematch.full_share", "ratio"},
	{"netproto.dial_s", "s"},
	{"netproto.server_epoch_s", "s"},
	{"netproto.client_epoch_s", "s"},
	{"netproto.msgs_per_epoch", "count"},
	{"netproto.epoch_s.p99", "s"},
	{"netproto.stale", "count"},
	{"netproto.reaped", "count"},
	{"netproto.degraded", "count"},
	{"telemetry.events_per_epoch", "count"},
	{"telemetry.events_dropped", "count"},
	{"telemetry.recorder_share", "ratio"},
	{"runtime.alloc_bytes_per_epoch", "bytes"},
	{"runtime.gc_cycles_per_epoch", "count"},
	{"runtime.gc_pause_s", "s"},
	{"core.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"quality.blocking_pairs_per_agent", "ratio"},
	{"quality.failed_share", "ratio"},
}

// derivedTimes are "_s" metrics computed from counters, not spans.
var derivedTimes = map[string]bool{
	"netproto.dial_s":      true,
	"netproto.epoch_s.p99": true,
	"runtime.gc_pause_s":   true,
}

// layerReport is what a workload's traced run hands back: the legs'
// epoch medians, the composition check and the counters measured
// around layer calls. Span timings stay in the tracer.
type layerReport struct {
	attempted int64
	failures
	// untracedP50 and recorderOffP50 are the untraced legs' epoch
	// medians with the flight recorder on and off.
	untracedP50, recorderOffP50 float64
	// mismatch is empty when the composed pipeline reproduced the
	// untraced matchings exactly.
	mismatch string
	values   map[string]float64
}

// runTraced runs the workload's traced legs and assembles the per-layer
// metrics.
func runTraced(w workloadRunner, name string, seed int64, budget time.Duration, dir string, host hostInfo) (result, error) {
	tr := newTracer()
	lr, err := w.traced(seed, budget, tr)
	if lr == nil {
		return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
	}
	stats, attributed := tr.layerStats()
	values := map[string]float64{}
	for _, m := range layerMetrics {
		if strings.HasSuffix(m.name, "_s") && !derivedTimes[m.name] {
			values[m.name] = stats[strings.TrimSuffix(m.name, "_s")].median
		}
	}
	for k, v := range lr.values {
		values[k] = v
	}
	if p := lr.untracedP50; p > 0 {
		values["core.unattributed_share"] = (p - median(attributed)) / p
		values["trace.overhead_share"] = (median(tr.epochDurations()) - p) / p
		values["telemetry.recorder_share"] = (p - lr.recorderOffP50) / p
	}
	values["quality.failed_share"] = float64(lr.failed) / float64(max64(lr.attempted, 1))

	res := result{
		Correct:   err == nil && lr.failed == 0 && lr.mismatch == "",
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	lr.report()
	if lr.mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench: composed pipeline diverged:", lr.mismatch)
	}
	base := fmt.Sprintf("%s-seed%d", name, seed)
	if werr := tr.write(dir, base, seed, host); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write trace:", werr)
		res.Correct = false
	}
	tr.writeTable(os.Stderr, host)
	return res, err
}

// legProbe measures, around an untraced leg, the allocation and GC
// work, the pair-cache traffic and the flight-recorder events. Reads of
// a nil cache or ring count nothing.
type legProbe struct {
	mem             runtime.MemStats
	cache           *arch.PairCache
	hits, misses    int64
	tel             *telemetry.Telemetry
	events, dropped int64
}

func startProbe(cache *arch.PairCache, tel *telemetry.Telemetry) *legProbe {
	p := &legProbe{cache: cache, tel: tel}
	runtime.ReadMemStats(&p.mem)
	p.hits, p.misses = cache.Stats()
	p.events, p.dropped = recorderCount(tel)
	return p
}

// record stores the leg's runtime.*, arch.paircache_* and telemetry.*
// metrics into values, per epoch where the metric says so.
func (p *legProbe) record(epochs int, values map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e := float64(max64(int64(epochs), 1))
	values["runtime.alloc_bytes_per_epoch"] = float64(after.TotalAlloc-p.mem.TotalAlloc) / e
	values["runtime.gc_cycles_per_epoch"] = float64(after.NumGC-p.mem.NumGC) / e
	values["runtime.gc_pause_s"] = float64(after.PauseTotalNs-p.mem.PauseTotalNs) / 1e9 / e

	hits, misses := p.cache.Stats()
	hits, misses = hits-p.hits, misses-p.misses
	values["arch.paircache_misses"] = float64(misses)
	if hits+misses > 0 {
		values["arch.paircache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	events, dropped := recorderCount(p.tel)
	values["telemetry.events_per_epoch"] += float64(events-p.events) / e
	values["telemetry.events_dropped"] += float64(dropped - p.dropped)
}

// recorderCount returns how many events a telemetry's ring has
// recorded, retained or dropped.
func recorderCount(tel *telemetry.Telemetry) (recorded, dropped int64) {
	ring := tel.EventRing()
	return int64(ring.Len()) + ring.Dropped(), ring.Dropped()
}

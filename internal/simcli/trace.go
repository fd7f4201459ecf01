package simcli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cooper/internal/core"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/textplot"
)

// Trace runs one fully instrumented pass of the Cooper pipeline — offline
// profiling campaign, preference prediction, and a scheduling epoch — and
// renders the span tree, the phase timings, the epoch penalty histogram,
// and the work counters. It is the cooper-sim -trace entry point.
func Trace(w io.Writer, opts Options) error {
	if opts.N <= 0 {
		opts.N = 64
	}
	if opts.Quick && opts.N > 64 {
		opts.N = 64
	}
	tel := telemetry.New()
	if opts.EventsOut != "" {
		f, err := os.OpenFile(opts.EventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		tel.Events.SetSink(f)
	}
	cfg := core.Config{
		Seed:     opts.Seed,
		Pipeline: core.PipelineConfig{Workers: opts.Workers},
		Observe:  core.ObserveConfig{Telemetry: tel},
	}
	if opts.Approx.Bits > 0 {
		cfg.Pipeline.Predictor = recommend.Default()
		cfg.Pipeline.Predictor.Approx = opts.Approx
	}
	fw, err := core.NewFramework(cfg)
	if err != nil {
		return err
	}
	if opts.Approx.Bits > 0 {
		fmt.Fprintf(w, "prediction kernel: %s\n\n", cfg.Pipeline.Predictor.KernelName())
	}
	epochs := opts.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	for e := 0; e < epochs; e++ {
		pop := fw.SamplePopulation(opts.N, stats.Uniform{})
		if _, err := fw.RunEpoch(pop); err != nil {
			return err
		}
	}
	tel.Trace.Finish()

	if opts.EventsOut != "" {
		// The sink latches its first write error instead of failing the
		// epoch loop; surface it here so a truncated log cannot pass for a
		// complete one.
		if err := tel.Events.Err(); err != nil {
			return fmt.Errorf("event sink %s: %w (the JSONL log is incomplete)", opts.EventsOut, err)
		}
		fmt.Fprintf(w, "event log appended to %s (audit with cooper-replay)\n\n", opts.EventsOut)
	}

	if opts.TraceOut != "" {
		f, err := os.Create(opts.TraceOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, tel.Trace.Snapshot()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "chrome trace written to %s (open in ui.perfetto.dev)\n\n", opts.TraceOut)
	}

	snap := fw.Snapshot()
	fmt.Fprintf(w, "span tree (%d agents, seed %d):\n\n", opts.N, opts.Seed)
	fmt.Fprintln(w, tel.Trace.Render())

	covered := tel.Trace.CoveredPhases()
	fmt.Fprintf(w, "phases covered: %d/%d (%v)\n\n", len(covered),
		len(telemetry.PhaseNames()), covered)

	if h, ok := snap.Histograms["epoch.penalty"]; ok && h.Count > 0 {
		labels := make([]string, len(h.Counts))
		values := make([]float64, len(h.Counts))
		for i, c := range h.Counts {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i < len(h.Bounds) {
				labels[i] = fmt.Sprintf("[%.3f,%.3f)", lo, h.Bounds[i])
			} else {
				labels[i] = fmt.Sprintf("[%.3f,+inf)", lo)
			}
			values[i] = float64(c)
		}
		fmt.Fprintf(w, "epoch penalty distribution (p50 %.4f, p95 %.4f, p99 %.4f):\n\n",
			h.P50, h.P95, h.P99)
		fmt.Fprintln(w, textplot.Bar(labels, values, 40, "%.0f"))
	}

	// Phase timing quantiles: every phase.<name>_s histogram the epoch
	// filled, as a p50/p95/p99 table in milliseconds.
	var phases []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "phase.") && strings.HasSuffix(name, "_s") {
			phases = append(phases, name)
		}
	}
	if len(phases) > 0 {
		sort.Strings(phases)
		rows := make([][]string, len(phases))
		for i, name := range phases {
			h := snap.Histograms[name]
			rows[i] = []string{
				strings.TrimSuffix(strings.TrimPrefix(name, "phase."), "_s"),
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.3f", h.P50*1e3),
				fmt.Sprintf("%.3f", h.P95*1e3),
				fmt.Sprintf("%.3f", h.P99*1e3),
			}
		}
		fmt.Fprintln(w, "phase timings (ms):")
		fmt.Fprintln(w, textplot.Table([]string{"phase", "count", "p50", "p95", "p99"}, rows))
	}

	if len(snap.Counters) > 0 {
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		rows := make([][]string, len(names))
		for i, name := range names {
			rows[i] = []string{name, fmt.Sprintf("%d", snap.Counters[name])}
		}
		fmt.Fprintln(w, "work counters:")
		fmt.Fprintln(w, textplot.Table([]string{"counter", "value"}, rows))
	}
	return nil
}

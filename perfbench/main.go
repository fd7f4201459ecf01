// Command perfbench is Cooper's repository benchmark. One invocation runs
// one workload for a fixed wall-clock budget and prints, as the last line
// of standard output, a JSON object with the run's correctness verdict,
// its operation counts and its metrics:
//
//	go run . --workload clear-2k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// system sees (epoch latency and throughput, set-up time, matching
// quality, memory). With --trace 1 the run instead composes the same
// pipeline from public layer calls, times each call in its own span,
// checks that the composition reproduces the untraced matchings byte for
// byte, and reports per-layer self times and work counts; it writes the
// spans as a Chrome trace and a self-time table under --trace-dir.
//
// Workloads (see BENCHMARK.json at the repository root):
//
//	clear-2k    in-process all-pairs market, 2000 agents, closed loop
//	stream-20k  in-process sharded streaming market, 20000 agents, 1% churn
//	wire-2      loopback TCP coordinator with two agent connections
//
// The exit code is 0 only when every output check passed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadRunner is what each workload implements: an untraced
// end-to-end run and a traced per-layer run.
type workloadRunner interface {
	measure(seed int64, budget time.Duration) (*measured, error)
	traced(seed int64, budget time.Duration, tr *tracer) (*layerReport, error)
}

// schedulerThreads is the GOMAXPROCS, and so the worker count, of every
// workload. On a virtual machine whose CPUs are stolen from at random, a
// run spread over two threads measures the steal: an in-process epoch
// that loses one of its two CPUs takes twice as long, and the loopback
// wire epoch, a chain of hand-offs between three goroutines, turns each
// hand-off into a cross-CPU wake-up. Such runs swung by more than half
// from one run to the next; on one thread they stay within a few
// percent. Framework results do not depend on the worker count.
const schedulerThreads = 1

// workloads maps each benchmark workload name to its full-size runner.
func workloads() map[string]workloadRunner {
	return map[string]workloadRunner{
		"clear-2k":   clearWorkload{Agents: 2000, QualityEpochs: 8},
		"stream-20k": streamWorkload{Agents: 20000, Shards: 64, ChurnPct: 1, QualityEpochs: 36, SetupRepeats: 3},
		"wire-2":     wireWorkload{EpochsPerRound: 250},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: clear-2k, stream-20k or wire-2")
	seed := flag.Int64("seed", 1, "workload seed: population, churn and market randomness")
	seconds := flag.Int("seconds", 30, "measured wall-clock budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where the traced run writes its Chrome trace and self-time table")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {clear-2k|stream-20k|wire-2} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(schedulerThreads)
	host := describeHost(*name, *seed)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *name, *seed, budget, *traceDir, host)
	} else {
		res, err = runMeasured(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", merr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runMeasured runs the untraced workload and derives the end-to-end
// metrics.
func runMeasured(w workloadRunner, seed int64, budget time.Duration) (result, error) {
	m, err := w.measure(seed, budget)
	if err != nil && m == nil {
		return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
	}
	rate, p50, p90 := m.timing()
	res := result{
		Correct:   err == nil && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(m.setup), "s"},
			"epochs_per_s":      {rate, "1/s"},
			"epoch_s.p50":       {p50, "s"},
			"epoch_s.p90":       {p90, "s"},
			"mean_penalty":      {m.quality.meanPenalty(), "ratio"},
			"participate_share": {m.quality.participateShare(), "ratio"},
			"success_share":     {1 - float64(m.failed)/float64(max64(m.attempted, 1)), "ratio"},
			"peak_rss_mb":       {peakRSSMB(), "MB"},
		},
	}
	m.report()
	return res, err
}

// measured is an untraced run's raw outcome.
type measured struct {
	setup []float64 // seconds per set-up repeat
	leg   leg
	// rounds, when set, summarizes each round of a workload that runs
	// in rounds.
	rounds    []roundStat
	attempted int64
	failures
	quality quality
}

// roundStat is one round's epochs over its wall time (set-up included)
// and its epoch latency percentiles.
type roundStat struct{ rate, p50, p90 float64 }

// timing returns the epochs completed per second and the epoch latency
// p50 and p90: over the whole window, or for a workload that runs in
// rounds, the median round's value of each, so that a burst of host CPU
// steal slowing a minority of rounds moves none of them.
func (m *measured) timing() (rate, p50, p90 float64) {
	if len(m.rounds) == 0 {
		l := m.leg
		return float64(len(l.latency)) / l.window.Seconds(), quantile(l.latency, 0.5), quantile(l.latency, 0.9)
	}
	var rates, p50s, p90s []float64
	for _, r := range m.rounds {
		rates = append(rates, r.rate)
		p50s = append(p50s, r.p50)
		p90s = append(p90s, r.p90)
	}
	return median(rates), median(p50s), median(p90s)
}

// failures counts failed operations and keeps the first reasons.
type failures struct {
	failed  int64
	reasons []string
}

func (f *failures) fail(format string, args ...any) {
	f.failed++
	if len(f.reasons) < 20 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

// merge adds another log's failures to f.
func (f *failures) merge(o failures) {
	f.failed += o.failed
	f.reasons = append(f.reasons, o.reasons...)
}

// report prints the kept reasons to standard error.
func (f *failures) report() {
	for _, r := range f.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", r)
	}
}

// quality accumulates the matching-quality yardsticks over a fixed
// prefix of epochs, so same-seed runs report identical values whatever
// the time budget: the mean oracle penalty per agent-epoch, and the
// share of agents that participate in their assignment rather than
// recommend breaking away. The break-away share itself swings by a
// factor of two or more from one epoch to the next, so its complement
// is the steady form of the same signal.
type quality struct {
	agentEpochs int64
	penaltySum  float64
	breakaways  int64
}

func (q *quality) meanPenalty() float64 { return q.penaltySum / float64(max64(q.agentEpochs, 1)) }
func (q *quality) participateShare() float64 {
	return 1 - float64(q.breakaways)/float64(max64(q.agentEpochs, 1))
}

// leg is the outcome of one run of back-to-back epochs.
type leg struct {
	latency []float64 // seconds per epoch in the window
	epochs  int       // epochs run, the first included
	window  time.Duration
}

// runLeg runs epochs back to back in a closed loop: step(k) runs epoch
// k and returns how long the program's own call took, leaving the
// benchmark's input generation and output checks out of the latency.
// The first epoch warms caches and stays outside the latency window.
// With count > 0 exactly count epochs run; otherwise epochs run until
// the window has lasted budget and at least minEpochs have run. A
// non-nil between runs after every epoch in the window; its time counts
// toward the budget but not the window.
func runLeg(count, minEpochs int, budget time.Duration, step func(k int) (time.Duration, error), between func() error) (leg, error) {
	var l leg
	if _, err := step(0); err != nil {
		return l, err
	}
	l.epochs = 1
	start := time.Now()
	var paused time.Duration
	for k := 1; ; k++ {
		if count > 0 && k >= count {
			break
		}
		if count == 0 && k >= minEpochs && time.Since(start) >= budget {
			break
		}
		d, err := step(k)
		if err != nil {
			return l, err
		}
		l.latency = append(l.latency, d.Seconds())
		l.epochs++
		if between != nil {
			t := time.Now()
			if err := between(); err != nil {
				return l, err
			}
			paused += time.Since(t)
		}
	}
	l.window = time.Since(start) - paused
	return l, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo records where and how a result was measured.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	UlimitN    uint64 `json:"ulimit_n"`
}

func describeHost(name string, seed int64) hostInfo {
	h := hostInfo{
		Workload:   name,
		Seed:       seed,
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil {
		h.UlimitN = lim.Cur
	}
	return h
}

// workers is the worker budget every workload uses: one per scheduler
// thread, so the load generator never oversubscribes the host.
func workers() int { return runtime.GOMAXPROCS(0) }

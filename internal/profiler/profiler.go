// Package profiler implements Cooper's system profiler: it runs jobs —
// standalone and in sampled colocations — on the simulated CMP, records
// their throughput and memory counters, and serves the measurements
// through a queryable database, mirroring the paper's setup of modified
// Spark logging, perf stat runtimes, and once-per-second MSR reads stored
// in a Google-wide-profiling-style database.
//
// Profiling is deliberately sparse: measuring every pair of jobs is
// intractable at datacenter scale, so the profiler samples a fraction of
// the colocation space and the preference predictor (package recommend)
// fills in the rest.
package profiler

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"cooper/internal/arch"
	"cooper/internal/parallel"
	"cooper/internal/sparklog"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Record is one profiled run: a job, optionally a co-runner, and the
// performance observed.
type Record struct {
	// Seq is the record's logical timestamp: a monotonically increasing
	// sequence number assigned by the database (deterministic, unlike
	// wall-clock stamps).
	Seq int64
	// Job is the profiled job's name; CoRunner is empty for standalone
	// runs.
	Job      string
	CoRunner string
	// Machine identifies the CMP the run executed on.
	Machine string

	ThroughputIPS  float64 // measured mean instructions/s
	BandwidthGBps  float64 // measured mean memory bandwidth
	MissRatio      float64 // mean LLC miss ratio
	MemUtilization float64 // mean memory channel utilization
}

// Query filters database records. Zero fields match everything.
type Query struct {
	Job      string // exact job name
	CoRunner string // exact co-runner name; "solo" matches standalone runs
	Machine  string // exact machine ID
	Since    int64  // minimum Seq, inclusive
	Until    int64  // maximum Seq, inclusive; 0 means no upper bound
}

// Solo is the Query.CoRunner sentinel matching standalone records.
const Solo = "solo"

// Database stores profiling records and answers queries. Safe for
// concurrent use; the paper's agents query it while the profiler appends.
type Database struct {
	mu      sync.RWMutex
	records []Record
	nextSeq int64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{} }

// Insert appends a record, assigning its sequence number, and returns it.
func (db *Database) Insert(r Record) Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextSeq++
	r.Seq = db.nextSeq
	db.records = append(db.records, r)
	return r
}

// Len returns the number of stored records.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Select returns all records matching q, in insertion order.
func (db *Database) Select(q Query) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	for _, r := range db.records {
		if q.Job != "" && r.Job != q.Job {
			continue
		}
		if q.CoRunner == Solo {
			if r.CoRunner != "" {
				continue
			}
		} else if q.CoRunner != "" && r.CoRunner != q.CoRunner {
			continue
		}
		if q.Machine != "" && r.Machine != q.Machine {
			continue
		}
		if r.Seq < q.Since {
			continue
		}
		if q.Until != 0 && r.Seq > q.Until {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Profiler executes profiling runs on a simulated machine and stores the
// results.
type Profiler struct {
	Machine arch.CMP
	Sim     arch.SimConfig
	DB      *Database
	// MeasureNoise is the relative standard deviation of multiplicative
	// measurement noise applied to observed throughput (the paper notes
	// run-to-run variance occasionally makes colocated runs look faster
	// than standalone ones). Zero disables it.
	MeasureNoise float64
	// UseSparkLogs measures Spark-suite jobs the way the paper did:
	// generate the instrumented engine's task/stage/job completion log
	// for the run and recover throughput by parsing it, picking up the
	// whole-task quantization that path carries. PARSEC jobs keep the
	// direct (perf-stat-style) measurement.
	UseSparkLogs bool
	// Tel, when non-nil, receives the Campaign's sample and profile phase
	// spans plus the profile.records counter and profile.sample_fraction
	// gauge. Nil disables tracing.
	Tel *telemetry.Telemetry
	// Workers bounds the campaign's fan-out across simulated profiling
	// runs; <= 0 means GOMAXPROCS. Each run draws from its own RNG
	// seeded by the run index, so results are bit-identical at any
	// worker count.
	Workers int

	mu   sync.Mutex
	seed int64
	rng  *rand.Rand
}

// InstructionsPerTask converts instruction throughput into Spark task
// throughput for the log-based measurement path. The catalog's Spark jobs
// retire tasks of roughly a billion instructions.
const InstructionsPerTask = 1e9

// measureIPS converts a simulated throughput into the observed one,
// routing Spark jobs through the event-log path when enabled, drawing
// any measurement noise from r.
func (p *Profiler) measureIPS(job workload.Job, ips float64, r *rand.Rand) float64 {
	if p.UseSparkLogs && job.Suite == workload.Spark && ips > 0 {
		rate := ips / InstructionsPerTask
		got, err := sparklog.MeasureThroughput(rate, job.RuntimeS, r)
		if err == nil && got > 0 {
			return got * InstructionsPerTask
		}
	}
	return p.noisy(ips, r)
}

// New returns a profiler for machine m writing into db, with deterministic
// noise driven by seed.
func New(m arch.CMP, db *Database, seed int64) *Profiler {
	return &Profiler{
		Machine:      m,
		Sim:          arch.DefaultSimConfig(),
		DB:           db,
		MeasureNoise: 0.005,
		seed:         seed,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

func (p *Profiler) noisy(x float64, r *rand.Rand) float64 {
	if p.MeasureNoise == 0 {
		return x
	}
	return x * (1 + r.NormFloat64()*p.MeasureNoise)
}

// runStandalone simulates job alone on the machine, drawing simulation
// and measurement noise from r, and returns the unrecorded observation.
func (p *Profiler) runStandalone(job workload.Job, r *rand.Rand) Record {
	res := p.Machine.SimulateSolo(job.Model, p.Sim, r)
	return Record{
		Job:            job.Name,
		Machine:        p.Machine.Name,
		ThroughputIPS:  p.measureIPS(job, res.MeanIPS(), r),
		BandwidthGBps:  res.MeanBandwidth() / 1e9,
		MissRatio:      meanMiss(res),
		MemUtilization: meanUtil(res),
	}
}

// runPair simulates the colocation of a and b, drawing all noise from r,
// and returns both unrecorded observations.
func (p *Profiler) runPair(a, b workload.Job, r *rand.Rand) (Record, Record) {
	resA, resB := p.Machine.SimulatePair(a.Model, b.Model, p.Sim, r)
	recA := Record{
		Job: a.Name, CoRunner: b.Name, Machine: p.Machine.Name,
		ThroughputIPS:  p.measureIPS(a, resA.MeanIPS(), r),
		BandwidthGBps:  resA.MeanBandwidth() / 1e9,
		MissRatio:      meanMiss(resA),
		MemUtilization: meanUtil(resA),
	}
	recB := Record{
		Job: b.Name, CoRunner: a.Name, Machine: p.Machine.Name,
		ThroughputIPS:  p.measureIPS(b, resB.MeanIPS(), r),
		BandwidthGBps:  resB.MeanBandwidth() / 1e9,
		MissRatio:      meanMiss(resB),
		MemUtilization: meanUtil(resB),
	}
	return recA, recB
}

// ProfileStandalone runs job alone on the machine and records the result.
func (p *Profiler) ProfileStandalone(job workload.Job) Record {
	p.mu.Lock()
	rec := p.runStandalone(job, p.rng)
	p.mu.Unlock()
	return p.DB.Insert(rec)
}

// ProfilePair colocates jobs a and b on the machine and records both
// sides' observations.
func (p *Profiler) ProfilePair(a, b workload.Job) (Record, Record) {
	p.mu.Lock()
	recA, recB := p.runPair(a, b, p.rng)
	p.mu.Unlock()
	return p.DB.Insert(recA), p.DB.Insert(recB)
}

func meanMiss(r arch.RunResult) float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Samples {
		sum += s.MissRatio
	}
	return sum / float64(len(r.Samples))
}

func meanUtil(r arch.RunResult) float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Samples {
		sum += s.MemUtilization
	}
	return sum / float64(len(r.Samples))
}

// Campaign profiles a catalog: every job standalone, plus a sampled
// fraction of the (unordered) colocation space. The sampled pairs are
// drawn without replacement. fraction is clamped to [0, 1]. Self-pairs
// (two instances of the same job) are part of the space, as two agents
// can run the same application.
func (p *Profiler) Campaign(jobs []workload.Job, fraction float64) error {
	return p.CampaignContext(context.Background(), jobs, fraction)
}

// CampaignContext runs Campaign with cancellation between and during the
// profiling fan-out. The measurement runs fan out across p.Workers
// workers; every run draws its simulation and measurement noise from a
// private RNG seeded by the profiler seed and the run's index, and the
// records land in the database in run order, so the database contents
// are bit-identical whatever the worker count.
func (p *Profiler) CampaignContext(ctx context.Context, jobs []workload.Job, fraction float64) error {
	if len(jobs) == 0 {
		return fmt.Errorf("profiler: empty catalog")
	}
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}

	// Sample phase: choose which colocations to measure. The shuffle
	// consumes the profiler's own stream serially, before any fan-out,
	// so the sampled set is worker-count independent too.
	sample := p.Tel.Phase(nil, "sample")
	type pair struct{ a, b int }
	var pairs []pair
	for i := range jobs {
		for j := i; j < len(jobs); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	p.mu.Lock()
	p.rng.Shuffle(len(pairs), func(x, y int) { pairs[x], pairs[y] = pairs[y], pairs[x] })
	p.mu.Unlock()
	n := int(math.Round(fraction * float64(len(pairs))))
	sample.SetAttr("fraction", fraction)
	sample.SetAttr("space", len(pairs))
	sample.SetAttr("sampled", n)
	p.Tel.End(sample)
	p.Tel.Gauge("profile.sample_fraction").Set(fraction)

	// Profile phase: the runs — one per standalone job, one per sampled
	// pair — are mutually independent simulations, so they fan out.
	// Each run writes only its own slot; insertion happens afterwards in
	// run order so record sequence numbers stay deterministic.
	profile := p.Tel.Phase(nil, "profile")
	profile.SetAttr("workers", parallel.Workers(p.Workers))
	runs := len(jobs) + n
	out := make([][]Record, runs)
	err := parallel.ForEach(ctx, p.Workers, runs, func(i int) error {
		r := rand.New(rand.NewSource(parallel.SplitSeed(p.seed, int64(i))))
		if i < len(jobs) {
			out[i] = []Record{p.runStandalone(jobs[i], r)}
			return nil
		}
		pr := pairs[i-len(jobs)]
		recA, recB := p.runPair(jobs[pr.a], jobs[pr.b], r)
		out[i] = []Record{recA, recB}
		return nil
	})
	if err != nil {
		p.Tel.End(profile)
		return err
	}
	for _, recs := range out {
		for _, rec := range recs {
			p.DB.Insert(rec)
		}
	}
	records := len(jobs) + 2*n
	profile.SetAttr("standalone", len(jobs))
	profile.SetAttr("pairs", n)
	profile.SetAttr("records", records)
	p.Tel.End(profile)
	p.Tel.Counter("profile.records").Add(int64(records))
	return nil
}

// PenaltyMatrix assembles the job-level disutility matrix from the
// database: entry [i][j] is job i's penalty when colocated with job j,
// d = 1 - colocated/standalone throughput. Unprofiled colocations are
// NaN; the preference predictor fills them in. Penalties may be slightly
// negative under measurement noise, matching the paper's footnote.
func PenaltyMatrix(db *Database, jobs []workload.Job) ([][]float64, error) {
	n := len(jobs)
	idx := make(map[string]int, n)
	for i, j := range jobs {
		idx[j.Name] = i
	}

	solo := make([]float64, n)
	for i, j := range jobs {
		recs := db.Select(Query{Job: j.Name, CoRunner: Solo})
		if len(recs) == 0 {
			return nil, fmt.Errorf("profiler: no standalone profile for %s", j.Name)
		}
		var sum float64
		for _, r := range recs {
			sum += r.ThroughputIPS
		}
		solo[i] = sum / float64(len(recs))
	}

	d := make([][]float64, n)
	counts := make([][]int, n)
	for i := range d {
		d[i] = make([]float64, n)
		counts[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = math.NaN()
		}
	}
	for _, r := range db.Select(Query{}) {
		if r.CoRunner == "" {
			continue
		}
		i, ok1 := idx[r.Job]
		j, ok2 := idx[r.CoRunner]
		if !ok1 || !ok2 || solo[i] <= 0 {
			continue
		}
		pen := 1 - r.ThroughputIPS/solo[i]
		if counts[i][j] == 0 {
			d[i][j] = pen
		} else {
			// Running average across repeated measurements.
			d[i][j] = (d[i][j]*float64(counts[i][j]) + pen) / float64(counts[i][j]+1)
		}
		counts[i][j]++
	}
	return d, nil
}

// Sparsity returns the fraction of non-NaN entries in a penalty matrix.
func Sparsity(d [][]float64) float64 {
	total, known := 0, 0
	for _, row := range d {
		for _, v := range row {
			total++
			if !math.IsNaN(v) {
				known++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(known) / float64(total)
}

// DensePenalties computes the full job-level penalty matrix analytically
// (no sampling, no noise) — the oracle ground truth used to evaluate
// prediction accuracy and to drive experiments that assume perfect
// knowledge.
func DensePenalties(m arch.CMP, jobs []workload.Job) [][]float64 {
	d, _ := DensePenaltiesContext(context.Background(), m, jobs, 0, nil)
	return d
}

// DensePenaltiesContext is DensePenalties with a cancellation point, a
// worker budget for the O(n²) pair solves (<= 0 means GOMAXPROCS), and
// an optional pair cache. When cache is keyed to m, every solve is
// memoized through it — warming the cache for the epoch pipeline's
// assessment and dispatch phases. The solver is deterministic, so the
// result is identical at any worker count.
func DensePenaltiesContext(ctx context.Context, m arch.CMP, jobs []workload.Job, workers int, cache *arch.PairCache) ([][]float64, error) {
	n := len(jobs)
	useCache := cache.Keyed(m)
	solo := make([]float64, n)
	for i, j := range jobs {
		if useCache {
			solo[i] = cache.Solo(j.Name, j.Model).IPS
		} else {
			solo[i] = m.Solo(j.Model).IPS
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// Row i's worker owns cells d[i][j] and d[j][i] for j >= i; the cell
	// sets of distinct rows are disjoint, so no write races.
	err := parallel.ForEach(ctx, workers, n, func(i int) error {
		for j := i; j < n; j++ {
			var pi, pj arch.Perf
			if useCache {
				pi, pj = cache.Pair(jobs[i].Name, jobs[i].Model, jobs[j].Name, jobs[j].Model)
			} else {
				pi, pj = m.Pair(jobs[i].Model, jobs[j].Model)
			}
			d[i][j] = 1 - pi.IPS/solo[i]
			d[j][i] = 1 - pj.IPS/solo[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// ExpandToAgents lifts a job-level penalty matrix to the agent level for a
// population: agent a's penalty with agent b is its job's penalty with b's
// job (zero on the diagonal). The result is flat — one backing allocation
// with rows sliced out of it. Agents running the same job share the same
// expanded row up to the diagonal, so the gather through the population's
// row mapping happens once per distinct catalog job and every agent row
// is a single copy, not n map/bounds-checked lookups.
func ExpandToAgents(jobD [][]float64, jobs []workload.Job, pop workload.Population) ([][]float64, error) {
	idx := make(map[string]int, len(jobs))
	for i, j := range jobs {
		idx[j.Name] = i
	}
	n := len(pop.Jobs)
	rows := make([]int, n)
	for a, j := range pop.Jobs {
		i, ok := idx[j.Name]
		if !ok {
			return nil, fmt.Errorf("profiler: population job %q not in catalog", j.Name)
		}
		rows[a] = i
	}
	return ExpandRows(jobD, rows), nil
}

// ExpandRows is ExpandToAgents for a population already resolved to
// matrix rows: agent a runs the job of row rows[a], which must index
// jobD.
func ExpandRows(jobD [][]float64, rows []int) [][]float64 {
	n := len(rows)
	// One expanded row per catalog job actually present in the population:
	// expanded[r][b] = jobD[r][rows[b]].
	expanded := make([][]float64, len(jobD))
	for _, r := range rows {
		if expanded[r] != nil {
			continue
		}
		src := jobD[r]
		row := make([]float64, n)
		for b, rb := range rows {
			row[b] = src[rb]
		}
		expanded[r] = row
	}
	backing := make([]float64, n*n)
	d := make([][]float64, n)
	for a := 0; a < n; a++ {
		d[a] = backing[a*n : (a+1)*n]
		copy(d[a], expanded[rows[a]])
		d[a][a] = 0
	}
	return d
}

// SortedJobNames returns the distinct job names in the database, sorted —
// a convenience for reports.
func SortedJobNames(db *Database) []string {
	seen := make(map[string]bool)
	for _, r := range db.Select(Query{}) {
		seen[r.Job] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

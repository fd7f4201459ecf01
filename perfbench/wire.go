package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"sync"
	"time"

	"cooper/internal/core"
	"cooper/internal/journey"
	"cooper/internal/matching"
	"cooper/internal/netproto"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/workload"
)

// wireWorkload is the loopback TCP coordinator: a netproto.Server set up
// as cooperd sets it up by default (seeded telemetry, flight recorder,
// root span, journey builder; no chaos, no auditor; SMR unsharded) and
// two netproto.Client agents dialled from this process, each running
// epochs in a closed loop. Every EpochsPerRound epochs the pair is dealt
// anew — a fresh server and two fresh connections — walking a seeded
// order of every catalog job pairing, so the quality metrics average
// over all pairings rather than hinge on one.
type wireWorkload struct {
	EpochsPerRound int
	// Pairs truncates the pairing sweep (0 means every pairing).
	Pairs int
}

// agents is the population of every wire epoch.
const agents = 2

// wireEnv is what every round shares: the framework's catalog and
// penalty matrices.
type wireEnv struct {
	catalog   []workload.Job
	predicted [][]float64
	truth     [][]float64
	kernel    string
	row       map[string]int
}

func newWireEnv(fw *core.Framework) *wireEnv {
	env := &wireEnv{
		catalog:   fw.Catalog(),
		predicted: fw.PredictedPenalties(),
		truth:     fw.TruePenalties(),
		kernel:    fw.Kernel(),
		row:       map[string]int{},
	}
	for i, j := range env.catalog {
		env.row[j.Name] = i
	}
	return env
}

// penaltyRow is an agent's predicted penalty row by co-runner job, the
// preferences a netproto.Client assesses its assignment against.
func (env *wireEnv) penaltyRow(job string) map[string]float64 {
	row := make(map[string]float64, len(env.catalog))
	for j, other := range env.catalog {
		row[other.Name] = env.predicted[env.row[job]][j]
	}
	return row
}

// pairs returns the sweep: every unordered catalog pairing (same-job
// pairs included) in seeded order, each with a seeded agent order.
func (w wireWorkload) pairs(seed int64, catalog []workload.Job) [][agents]workload.Job {
	var ps [][agents]workload.Job
	for a := range catalog {
		for b := a; b < len(catalog); b++ {
			ps = append(ps, [agents]workload.Job{catalog[a], catalog[b]})
		}
	}
	r := newRNG(parallel.SplitSeed(seed, pairStream))
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for i := range ps {
		if r.Intn(2) == 1 {
			ps[i][0], ps[i][1] = ps[i][1], ps[i][0]
		}
	}
	if w.Pairs > 0 && w.Pairs < len(ps) {
		ps = ps[:w.Pairs]
	}
	return ps
}

// roundOut is one round's outcome.
type roundOut struct {
	ready      time.Duration // round start until both agents registered
	wall       time.Duration // round start until every agent and the server finished
	dials      []float64     // seconds per dial
	latency    []float64     // client 0's RunEpoch, epochs after the first
	epochs     int           // epochs the server completed
	failures                 // reaped agents, degraded epochs, failed checks
	penaltySum float64       // oracle penalty summed over agent-epochs
	breakaways int64
	msgs       int64 // wire messages in and out
	events     int64 // flight-recorder events recorded
	dropped    int64 // of which overwritten in the ring
	stale      int64
	reaped     int64
	degraded   int64
	assigned   hash.Hash // fingerprint of every assignment pushed
}

// clientLog is what one agent saw in one round.
type clientLog struct {
	assignments []netproto.Message
	summaries   []netproto.Message
	durations   []time.Duration
	err         error
}

// wireRound runs one round: a fresh server with Epochs epochs and two
// agents dealt the pair. base is the round's first global epoch index;
// with a tracer, each epoch gets a root span from agent 0's RunEpoch,
// server-epoch and policy spans from the server's hooks, and agent 1's
// RunEpoch as a side span.
func wireRound(env *wireEnv, seed int64, round, epochs, base int, pair [agents]workload.Job, recorder bool, tr *tracer) (*roundOut, error) {
	start := time.Now()
	out := &roundOut{assigned: sha256.New()}
	roundSeed := parallel.SplitSeed(seed, int64(round))
	tel := newTelemetry(roundSeed, recorder)
	jb := journey.NewBuilder()
	tel.Events.AddObserver(jb.Observe)
	srv := &netproto.Server{
		Epoch:     agents,
		Epochs:    epochs,
		Policy:    policy.StableMarriageRandom{},
		Catalog:   env.catalog,
		Penalties: env.predicted,
		Kernel:    env.kernel,
		Seed:      roundSeed,
		Workers:   workers(),
		Metrics:   tel.Registry(),
		Events:    tel.Events,
		Span:      tel.Trace,
	}
	if tr != nil {
		pol := &timedPolicy{inner: policy.StableMarriageRandom{}, tr: tr}
		srv.Policy = pol
		serverSpan := -1
		srv.BeforeEpoch = func(e int) {
			serverSpan = tr.begin("netproto.server_epoch", base+e, -1)
			pol.under(base+e, serverSpan)
		}
		srv.OnEpoch = func(int, netproto.Message) { tr.end(serverSpan) }
		tr.warmUp(base)
	}
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0", func(addr string) { ready <- addr }) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		return nil, fmt.Errorf("serve: %w", err)
	}

	// Dial in order so agent IDs, and so every assignment, are the same
	// on every run.
	clients := make([]*netproto.Client, 0, agents)
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for i, job := range pair {
		id := tr.begin("netproto.dial", base, -1)
		t := time.Now()
		c, err := netproto.Dial(addr, job.Name)
		out.dials = append(out.dials, time.Since(t).Seconds())
		tr.end(id)
		if err != nil {
			srv.Shutdown()
			<-served
			closeAll()
			return nil, fmt.Errorf("dial agent %d: %w", i, err)
		}
		c.Penalties = env.penaltyRow(job.Name)
		clients = append(clients, c)
	}
	out.ready = time.Since(start)

	logs := make([]clientLog, agents)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *netproto.Client) {
			defer wg.Done()
			log := &logs[i]
			name := "netproto.client_epoch"
			if i == 0 {
				name = epochSpan
			}
			for e := 0; e < epochs; e++ {
				id := tr.begin(name, base+e, -1)
				t := time.Now()
				a, s, err := c.RunEpoch()
				log.durations = append(log.durations, time.Since(t))
				tr.end(id)
				if err != nil {
					log.err = fmt.Errorf("agent %d epoch %d: %w", i, e, err)
					return
				}
				log.assignments = append(log.assignments, a)
				log.summaries = append(log.summaries, s)
			}
		}(i, c)
	}
	wg.Wait()
	serveErr := <-served
	closeAll()
	out.wall = time.Since(start)
	if serveErr != nil {
		out.fail("serve: %v", serveErr)
	}

	for i, log := range logs {
		if log.err != nil {
			out.fail("%v", log.err)
		}
		if i == 0 {
			for e, d := range log.durations {
				if e > 0 && e < len(log.assignments) {
					out.latency = append(out.latency, d.Seconds())
				}
			}
		}
	}
	done := min(len(logs[0].assignments), len(logs[1].assignments))
	out.epochs = done
	for e := 0; e < done; e++ {
		out.checkEpoch(env, e, pair, clients, logs)
	}
	snap := tel.Registry().Snapshot()
	for _, v := range snap.CountersWithPrefix("net.msg_") {
		out.msgs += v
	}
	out.stale = snap.Counter("net.stale")
	out.reaped = snap.Counter("net.reaped")
	out.degraded = snap.Counter("epoch.degraded")
	out.failed += out.reaped + out.degraded
	out.events, out.dropped = recorderCount(tel)
	return out, nil
}

// checkEpoch validates epoch e's outputs as both agents saw them, folds
// its assignments into the fingerprint and its quality into the totals.
func (o *roundOut) checkEpoch(env *wireEnv, e int, pair [agents]workload.Job, clients []*netproto.Client, logs []clientLog) {
	index := map[int]int{}
	for i, c := range clients {
		index[c.AgentID] = i
	}
	match := make(matching.Matching, agents)
	for i, log := range logs {
		a := log.assignments[e]
		data, _ := json.Marshal(a)
		o.assigned.Write(append(data, '\n'))
		match[i] = matching.Unmatched
		if a.PartnerID >= 0 {
			p, ok := index[a.PartnerID]
			if !ok || a.PartnerJob != pair[p].Name {
				o.fail("epoch %d: agent %d assigned unknown partner %d (%s)", e, i, a.PartnerID, a.PartnerJob)
				return
			}
			match[i] = p
		}
	}
	if err := match.Validate(); err != nil {
		o.fail("epoch %d: invalid matching: %v", e, err)
		return
	}
	sum := logs[0].summaries[e]
	if logs[1].summaries[e] != sum {
		o.fail("epoch %d: agents received different summaries", e)
	}
	if sum.Participating+sum.BreakAways != agents {
		o.fail("epoch %d: summary counts %d participating + %d break-aways, want %d live agents",
			e, sum.Participating, sum.BreakAways, agents)
	}
	for i, p := range match {
		if p != matching.Unmatched {
			o.penaltySum += env.truth[env.row[pair[i].Name]][env.row[pair[p].Name]]
		}
	}
	o.breakaways += int64(sum.BreakAways)
}

// session builds the framework, timing set-up as the framework build
// plus one round's serve, dial and registration.
func (w wireWorkload) session(seed int64) (*core.Framework, float64, error) {
	fw, s, err := buildFramework(frameworkConfig(newTelemetry(frameworkSeed, true), core.MarketConfig{}))
	if err != nil {
		return nil, 0, err
	}
	env := newWireEnv(fw)
	out, err := wireRound(env, seed, -1, 1, 0, w.pairs(seed, env.catalog)[0], true, nil)
	if err != nil {
		fw.Close()
		return nil, 0, err
	}
	return fw, s + out.ready.Seconds(), nil
}

// rounds runs rounds back to back, dealing the sweep's pairs in order:
// exactly count rounds when count > 0, otherwise until budget has
// passed and at least minRounds have run. fold sees each round; an
// error from it ends the rounds.
func (w wireWorkload) rounds(env *wireEnv, seed int64, count, minRounds int, budget time.Duration, recorder bool, tr *tracer, fold func(r int, o *roundOut) error) error {
	pairs := w.pairs(seed, env.catalog)
	start := time.Now()
	for r := 0; ; r++ {
		if count > 0 && r >= count {
			return nil
		}
		if count == 0 && r >= minRounds && time.Since(start) >= budget {
			return nil
		}
		o, err := wireRound(env, seed, r, w.EpochsPerRound, r*w.EpochsPerRound, pairs[r%len(pairs)], recorder, tr)
		if err != nil {
			return err
		}
		if err := fold(r, o); err != nil {
			return err
		}
	}
}

// measure runs the rounds, building a framework once more after every
// round: with that round's serve, dial and registration time it is one
// more set-up sample, so that the set-up times sample the whole run, as
// the epoch times do.
func (w wireWorkload) measure(seed int64, budget time.Duration) (*measured, error) {
	fw, s, err := w.session(seed)
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	m := &measured{setup: []float64{s}}
	env := newWireEnv(fw)
	qualityRounds := len(w.pairs(seed, env.catalog))
	err = w.rounds(env, seed, 0, qualityRounds, budget, true, nil, func(r int, o *roundOut) error {
		m.attempted += int64(w.EpochsPerRound)
		m.merge(o.failures)
		m.rounds = append(m.rounds, roundStat{
			rate: float64(o.epochs) / o.wall.Seconds(),
			p50:  quantile(o.latency, 0.5),
			p90:  quantile(o.latency, 0.9),
		})
		if r < qualityRounds {
			m.quality.agentEpochs += int64(agents * o.epochs)
			m.quality.penaltySum += o.penaltySum
			m.quality.breakaways += o.breakaways
		}
		build, err := timeSetup()
		m.setup = append(m.setup, build+o.ready.Seconds())
		return err
	})
	return m, err
}

func (w wireWorkload) traced(seed int64, budget time.Duration, tr *tracer) (*layerReport, error) {
	lr := &layerReport{values: map[string]float64{}}
	legBudget := budget / 3
	fw, _, err := buildFramework(frameworkConfig(newTelemetry(frameworkSeed, true), core.MarketConfig{}))
	if err != nil {
		return nil, err
	}
	env := newWireEnv(fw)
	fw.Close()

	// Leg 1: untraced, recorder on. Its round count fixes the others'.
	var want []string
	var on []float64
	var epochs, msgs, events, dropped int64
	probe := startProbe(nil, nil) // rounds bring their own rings, counted below
	err = w.rounds(env, seed, 0, 2, legBudget, true, nil, func(r int, o *roundOut) error {
		lr.attempted += int64(w.EpochsPerRound)
		lr.merge(o.failures)
		want = append(want, fmt.Sprintf("%x", o.assigned.Sum(nil)))
		on = append(on, o.latency...)
		epochs += int64(o.epochs)
		msgs += o.msgs
		events += o.events
		dropped += o.dropped
		lr.values["netproto.stale"] += float64(o.stale)
		lr.values["netproto.reaped"] += float64(o.reaped)
		lr.values["netproto.degraded"] += float64(o.degraded)
		return nil
	})
	if err != nil {
		return lr, err
	}
	probe.record(int(epochs), lr.values)
	e := float64(max64(epochs, 1))
	lr.values["netproto.msgs_per_epoch"] = float64(msgs) / e
	lr.values["telemetry.events_per_epoch"] = float64(events) / e
	lr.values["telemetry.events_dropped"] = float64(dropped)
	lr.values["netproto.epoch_s.p99"] = quantile(on, 0.99)
	lr.untracedP50 = median(on)
	rounds := len(want)

	// Leg 2: traced, on the composed set-up's penalties.
	c, err := composeSetup(tr, lr, env.predicted)
	if err != nil {
		return lr, err
	}
	composedEnv := *env
	composedEnv.predicted = c.predicted
	tr.side["netproto.client_epoch"] = true
	var dials []float64
	err = w.rounds(&composedEnv, seed, rounds, 0, 0, true, tr, func(r int, o *roundOut) error {
		dials = append(dials, o.dials...)
		if lr.mismatch == "" && fmt.Sprintf("%x", o.assigned.Sum(nil)) != want[r] {
			lr.mismatch = fmt.Sprintf("round %d assignments differ from the untraced run", r)
		}
		return nil
	})
	if err != nil {
		return lr, err
	}
	lr.values["netproto.dial_s"] = median(dials)

	// Leg 3: untraced with the flight recorder off.
	var off []float64
	err = w.rounds(env, seed, rounds, 0, 0, false, nil, func(r int, o *roundOut) error {
		off = append(off, o.latency...)
		return nil
	})
	if err != nil {
		return lr, err
	}
	lr.recorderOffP50 = median(off)
	return lr, nil
}

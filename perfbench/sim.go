package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/regions"
	"planet/internal/simnet"
	"planet/internal/vclock"
	"planet/internal/workload"
)

// simCase is one simulated workload: its cluster and DB, its fixed arrival
// schedule, optional fault injection and its oracle. The cluster takes the
// default (serialized) virtual-time scheduler.
type simCase struct {
	cluster  cluster.Config
	db       planet.Config // Cluster is filled in per pass
	keys     workload.KeyGen
	template workload.Template
	open     workload.Open // DB, Template and Ledger are filled in per pass
	// faults, when set, schedules fault injection on a fresh cluster and
	// returns a function reporting whether the injections succeeded.
	faults func(c *cluster.Cluster) func() error
	// oracle, when set, checks the drained cluster.
	oracle func(c *cluster.Cluster) error
}

// surgeCase is sim-surge: the planetbench -openloop shape at its quick
// size, scaled by size (1 in the benchmark, smaller in tests). Poisson
// arrivals over ramp, 5x peak, trough and tail phases on three regions,
// Zipf(1.2) keys over 1000 products, the commutative Buy template and
// adaptive admission.
func surgeCase(seed int64, size float64) simCase {
	keys := workload.NewZipfFast("hot-", 1000, 1.2)
	return simCase{
		cluster: cluster.Config{
			Topology:      regions.Three(),
			Seed:          seed,
			VirtualTime:   true,
			CommitTimeout: 2 * time.Second,
		},
		db: planet.Config{
			Admission: planet.AdmissionPolicy{MaxInFlight: 48},
			Adaptive:  planet.AdaptiveAdmission{Enabled: true},
		},
		keys:     keys,
		template: workload.Buy{Products: keys},
		open: workload.Open{
			Options: workload.Options{Seed: seed + 7},
			Phases: []workload.RatePhase{
				{Rate: 2e5 * size, Dur: 200 * time.Millisecond}, // ramp
				{Rate: 5e5 * size, Dur: 100 * time.Millisecond}, // peak
				{Rate: 0, Dur: 20 * time.Millisecond},           // trough
				{Rate: 2e5 * size, Dur: 200 * time.Millisecond}, // tail
			},
			Batch:       200 * time.Microsecond,
			SampleEvery: 4096,
		},
	}
}

// Contention shape: a fixed WAN arrival rate on the paper's five regions,
// each transaction a read-modify-write of one key drawn half the time from
// a small hot set.
const (
	contentionWANRate  = 400 // arrivals per second of WAN time
	contentionArrivals = 40000
	contentionHotKeys  = 80
	contentionVictim   = regions.Virginia
)

// contentionCase is sim-contention at size times its arrival count: the
// hotspot read-modify-write drives fast-path rejects, classic fallback and
// speculation at 0.9 into apologies, with admission off. Arrivals come from
// four regions; the fifth region's replica crashes a third of the way in
// and is restored from its WAL at two thirds.
func contentionCase(seed int64, size float64) simCase {
	keys := workload.Hotspot{Prefix: "rmw-", HotKeys: contentionHotKeys, ColdKeys: 5000, HotProb: 0.5}
	ccfg := cluster.Config{
		Topology:    regions.Five(),
		Seed:        seed,
		VirtualTime: true,
		WAL:         true,
	}
	scale := cluster.DefaultTimeScale
	count := int(contentionArrivals * size)
	rate := contentionWANRate / scale // emulator time
	span := time.Duration(float64(count) / rate * float64(time.Second))
	return simCase{
		cluster:  ccfg,
		keys:     keys,
		template: workload.ReadModifyWrite{Keys: keys, NKeys: 1},
		open: workload.Open{
			Options: workload.Options{
				Seed:        seed + 11,
				SpeculateAt: 0.9,
				Regions:     []simnet.Region{regions.California, regions.Ireland, regions.Singapore, regions.Tokyo},
			},
			Rate:        rate,
			Count:       count,
			SampleEvery: 1024,
		},
		faults: func(c *cluster.Cluster) func() error {
			var crashErr, restoreErr error
			clk := c.Clock()
			clk.AfterFunc(span/3, func() { crashErr = c.CrashReplica(contentionVictim) })
			clk.AfterFunc(2*span/3, func() { restoreErr = c.RestartReplica(contentionVictim) })
			return func() error {
				if crashErr != nil || restoreErr != nil {
					return fmt.Errorf("crash/restore of %s failed: crash=%v restore=%v", contentionVictim, crashErr, restoreErr)
				}
				return nil
			}
		},
		oracle: replicasAgree,
	}
}

// replicasAgree is sim-contention's oracle. Once the restored replica has
// pulled the decisions it missed while down (anti-entropy, SyncFrom), every
// pair of replicas must agree on every transaction both decided, and every
// replica must hold the same committed snapshot.
func replicasAgree(c *cluster.Cluster) error {
	regs := c.Regions()
	var syncErr error
	g := vclock.NewGroup(c.Clock())
	g.Go(func() {
		peer := c.Replica(regions.California).Addr()
		_, syncErr = c.Replica(contentionVictim).SyncFrom(peer, 10*time.Second)
	})
	g.Wait()
	if syncErr != nil {
		return fmt.Errorf("anti-entropy after restore: %w", syncErr)
	}
	decisions := make([]map[string]bool, len(regs))
	for i, r := range regs {
		decisions[i] = make(map[string]bool)
		for id, commit := range c.Replica(r).Decisions() {
			decisions[i][id.String()] = commit
		}
	}
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			for id, a := range decisions[i] {
				if b, ok := decisions[j][id]; ok && a != b {
					return fmt.Errorf("replicas %s and %s disagree on %s: %v vs %v", regs[i], regs[j], id, a, b)
				}
			}
		}
	}
	ref := c.Replica(regs[0]).Snapshot()
	for _, r := range regs[1:] {
		snap := c.Replica(r).Snapshot()
		if len(snap) != len(ref) {
			return fmt.Errorf("replica %s holds %d records, %s holds %d", r, len(snap), regs[0], len(ref))
		}
		for k, v := range ref {
			if w, ok := snap[k]; !ok || !reflect.DeepEqual(v, w) {
				return fmt.Errorf("replica %s differs from %s on %q: %+v vs %+v", r, regs[0], k, w, v)
			}
		}
	}
	return nil
}

// virtualOutcome is the part of a pass that depends only on the seed: the
// same seed must reproduce it bit for bit.
type virtualOutcome struct {
	injected, committed, aborted, rejected uint64
	speculated, apologies                  uint64
	finalP50, finalP99, perceivedP50       float64 // WAN ms
	goodput                                float64 // commits per WAN second
	virtual                                time.Duration
}

// simPass is one pass over a sim workload's fixed input.
type simPass struct {
	wall, cpu time.Duration
	out       virtualOutcome
	layers    map[string]float64 // traced passes only
}

// timedTemplate times every Build call of the template it wraps.
type timedTemplate struct {
	workload.Template
	mu  sync.Mutex
	dur []float64 // ns
}

func (t *timedTemplate) Build(s *planet.Session, rng *rand.Rand) (*planet.Txn, error) {
	start := time.Now()
	tx, err := t.Template.Build(s, rng)
	d := time.Since(start)
	t.mu.Lock()
	t.dur = append(t.dur, float64(d))
	t.mu.Unlock()
	return tx, err
}

// setupSim builds the cluster and DB and seeds the key space.
func setupSim(sc simCase, traced bool) (*cluster.Cluster, *planet.DB, error) {
	c, err := cluster.New(sc.cluster)
	if err != nil {
		return nil, nil, err
	}
	pcfg := sc.db
	pcfg.Cluster = c
	if traced {
		pcfg.Trace = true
		pcfg.Calibrate = true
	}
	db, err := planet.Open(pcfg)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	sc.template.Seed(c)
	return c, db, nil
}

func closeSim(c *cluster.Cluster) {
	c.Close()
	c.Quiesce(5 * time.Second)
}

// runSimPass builds a fresh cluster, runs the fixed arrival schedule to
// drain, and checks the oracles. A traced pass also collects the per-layer
// metrics.
func runSimPass(sc simCase, traced bool) (simPass, error) {
	var p simPass
	c, db, err := setupSim(sc, traced)
	if err != nil {
		return p, err
	}
	defer closeSim(c)

	var faultsErr func() error
	if sc.faults != nil {
		faultsErr = sc.faults(c)
	}
	ledger := &workload.Ledger{}
	open := sc.open
	open.DB = db
	open.Template = sc.template
	open.SkipSeed = true
	open.Ledger = ledger
	var timed *timedTemplate
	var sampler *goroutineSampler
	var memBefore runtime.MemStats
	if traced {
		timed = &timedTemplate{Template: sc.template}
		open.Template = timed
		sampler = startGoroutineSampler()
		runtime.ReadMemStats(&memBefore)
	}

	cpu0, wall0 := cpuTime(), time.Now()
	rep, err := open.Run()
	p.wall, p.cpu = time.Since(wall0), cpuTime()-cpu0
	if err != nil {
		return p, err
	}
	var memAfter runtime.MemStats
	var peakGoroutines int
	if traced {
		runtime.ReadMemStats(&memAfter)
		peakGoroutines = sampler.stop()
	}
	c.Quiesce(5 * time.Second)

	// Oracles: conservation at every sample and nothing left in flight.
	for _, s := range ledger.Samples() {
		if err := s.Check(); err != nil {
			return p, fmt.Errorf("conservation: %w", err)
		}
	}
	final := ledger.Final()
	if err := final.Check(); err != nil {
		return p, fmt.Errorf("conservation at drain: %w", err)
	}
	if final.InFlight != 0 {
		return p, fmt.Errorf("%d transactions still in flight at drain", final.InFlight)
	}
	if faultsErr != nil {
		if err := faultsErr(); err != nil {
			return p, err
		}
	}
	if sc.oracle != nil {
		if err := sc.oracle(c); err != nil {
			return p, err
		}
	}

	scale := c.TimeScale()
	p.out = virtualOutcome{
		injected:     final.Injected,
		committed:    final.Committed,
		aborted:      final.Aborted,
		rejected:     final.Rejected,
		speculated:   rep.Speculated.Load(),
		apologies:    rep.Apologies.Load(),
		finalP50:     ms(histQuantile(rep.Final, 0.50)) / scale,
		finalP99:     ms(histQuantile(rep.Final, 0.99)) / scale,
		perceivedP50: ms(histQuantile(rep.Perceived, 0.50)) / scale,
		goodput:      float64(final.Committed) / (rep.Elapsed.Seconds() / scale),
		virtual:      rep.Elapsed,
	}
	if traced {
		p.layers = simLayers(c, db, p, rep)
		p.layers["workload.build_us"] = median(timed.dur) / 1e3
		p.layers["workload.goroutines_peak"] = float64(peakGoroutines)
		p.layers["go.alloc_bytes_per_arrival"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(final.Injected)
		p.layers["go.gc_cycles"] = float64(memAfter.NumGC - memBefore.NumGC)
		commitUs, atSubmitNs, err := simProbes(sc, c, db)
		if err != nil {
			return p, err
		}
		p.layers["core.commit_call_us"] = commitUs
		p.layers["predictor.at_submit_ns"] = atSubmitNs
	}
	return p, nil
}

// simLayers reads the per-layer counters the drained cluster exports.
func simLayers(c *cluster.Cluster, db *planet.DB, p simPass, rep *workload.Report) map[string]float64 {
	o := p.out
	scale := c.TimeScale()
	decided := float64(o.committed + o.aborted)
	commits := math.Max(float64(o.committed), 1)
	var fastAcc, fastRej, classic, recovery, fallbacks, timeouts, walEntries uint64
	for _, r := range c.Regions() {
		rp := c.Replica(r)
		fastAcc += rp.FastAccepts
		fastRej += rp.FastRejects
		classic += rp.ClassicRuns
		recovery += rp.RecoveryRuns
		co := c.Coordinator(r)
		fallbacks += co.Fallbacks
		timeouts += co.Timeouts
		if w := c.WALOf(r); w != nil {
			walEntries += uint64(w.Len())
		}
	}
	l := map[string]float64{
		"vclock.wall_us_per_virtual_ms": float64(p.wall.Microseconds()) / ms(o.virtual),
		"core.admitted_ratio":           1 - float64(o.rejected)/float64(o.injected),
		"core.speculated_ratio":         rep.SpeculationRate(),
		"core.apology_ratio":            rep.ApologyRate(),
		"core.perceived_p50_ms":         o.perceivedP50,
		"core.final_p99_ms":             o.finalP99,
		"predictor.calibration_gap":     db.Calibration().MeanAbsoluteError(),
		"mdcc.fast_accept_ratio":        float64(fastAcc) / math.Max(float64(fastAcc+fastRej), 1),
		"mdcc.classic_runs_per_commit":  float64(classic) / commits,
		"mdcc.fallbacks_per_txn":        float64(fallbacks) / math.Max(decided, 1),
		"mdcc.recovery_runs":            float64(recovery),
		"mdcc.timeouts":                 float64(timeouts),
		"mdcc.wal_entries_per_commit":   float64(walEntries) / commits,
		"simnet.msgs_per_commit":        float64(c.Net.Sent.Load()) / commits,
		"simnet.dropped":                float64(c.Net.Dropped.Load()),
	}
	for k, v := range stageSelfMs(db.Attribution().Snapshot(), scale) {
		l[k] = v
	}
	return l
}

// Probe sizes: direct calls into core and the predictor on the warm
// cluster a traced pass leaves behind.
const (
	commitProbeCalls   = 500
	atSubmitProbeCalls = 200000
)

// simProbes times direct calls on the warm cluster: the synchronous return
// of Txn.Commit for transactions the workload's template builds (each then
// waited to its decision, untimed), and predictor.LikelihoodAtSubmit over
// the workload's keys.
func simProbes(sc simCase, c *cluster.Cluster, db *planet.DB) (commitUs, atSubmitNs float64, err error) {
	origin := c.Regions()[0]
	if len(sc.open.Regions) > 0 {
		origin = sc.open.Regions[0]
	}
	g := vclock.NewGroup(c.Clock())
	g.GoOn(c.ClockFor(origin), func() {
		s, serr := db.Session(origin)
		if serr != nil {
			err = serr
			return
		}
		rng := rand.New(rand.NewSource(sc.open.Seed + 1))
		handles := make([]*planet.Handle, 0, commitProbeCalls)
		var spent time.Duration
		for i := 0; i < commitProbeCalls; i++ {
			tx, berr := sc.template.Build(s, rng)
			if berr != nil {
				err = berr
				return
			}
			start := time.Now()
			h, cerr := tx.Commit(planet.CommitOptions{})
			spent += time.Since(start)
			if cerr != nil {
				err = cerr
				return
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			h.Wait()
		}
		commitUs = float64(spent.Microseconds()) / commitProbeCalls

		keys := make([][]string, 1024)
		for i := range keys {
			keys[i] = []string{sc.keys.Next(rng)}
		}
		pred := db.Predictor(origin)
		start := time.Now()
		for i := 0; i < atSubmitProbeCalls; i++ {
			pred.LikelihoodAtSubmit(keys[i%len(keys)])
		}
		atSubmitNs = float64(time.Since(start).Nanoseconds()) / atSubmitProbeCalls
	})
	g.Wait()
	return commitUs, atSubmitNs, err
}

// goroutineSampler records the peak goroutine count, sampled every
// millisecond until stop.
type goroutineSampler struct {
	done chan struct{}
	peak chan int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{done: make(chan struct{}), peak: make(chan int, 1)}
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		peak := runtime.NumGoroutine()
		for {
			select {
			case <-s.done:
				s.peak <- peak
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak.
func (s *goroutineSampler) stop() int {
	close(s.done)
	return <-s.peak
}

// setupSamples is how many set-ups a run times; setup_s is their median.
const setupSamples = 25

// timeSetup times one set-up. The heap is collected first and the collector
// is paused while the clock runs, then resumed: each sample measures the
// construction work itself, not a collection cycle landing inside it or
// the page faults of regrowing a heap the collector just shrank. Those made
// the median swing with the machine's load far more than the passes do.
func timeSetup(setup func() (cleanup func(), err error)) (time.Duration, error) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	start := time.Now()
	cleanup, err := setup()
	d := time.Since(start)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return 0, err
	}
	cleanup()
	return d, nil
}

// runSim drives a sim workload for cfg.seconds: untraced passes (and, with
// tracing, traced passes interleaved with them) while another pass fits in
// the time left, at least one of each. Every untraced pass must reproduce
// the first one's virtual-time outcome bit for bit.
func runSim(cfg runConfig, sc simCase) (outcome, error) {
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		d, err := timeSetup(func() (func(), error) {
			c, _, err := setupSim(sc, false)
			return func() { closeSim(c) }, err
		})
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
	}

	deadline := time.Now().Add(cfg.seconds)
	var plain, traced []simPass
	var peaks []float64 // MiB, per untraced pass
	var oracleErr error
	var longest time.Duration
	for len(plain) == 0 || (cfg.trace && len(traced) == 0) || time.Now().Add(longest).Before(deadline) {
		withTrace := cfg.trace && len(traced) < len(plain)
		// Each pass starts from a collected heap, so one pass's garbage is
		// not paid for by the next, and has its own memory peak.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return outcome{}, err
		}
		passStart := time.Now()
		p, err := runSimPass(sc, withTrace)
		longest = max(longest, time.Since(passStart))
		if err != nil {
			oracleErr = err
			break
		}
		if withTrace {
			traced = append(traced, p)
			continue
		}
		if len(plain) > 0 && p.out != plain[0].out {
			oracleErr = fmt.Errorf("same seed, different outcome: %+v vs %+v", p.out, plain[0].out)
			break
		}
		peak, err := peakRSSMB()
		if err != nil {
			return outcome{}, err
		}
		plain, peaks = append(plain, p), append(peaks, peak)
	}
	if len(plain) == 0 {
		return outcome{}, oracleErr
	}

	walls, cpus := passTimes(plain)
	first := plain[0].out
	res := outcome{
		attempted: first.injected * uint64(len(plain)+len(traced)),
		oracleErr: oracleErr,
	}
	if !cfg.trace {
		res.values = map[string]float64{
			"setup_s":       median(setups),
			"wall_s":        median(walls),
			"cpu_s":         median(cpus),
			"peak_rss_mb":   median(peaks),
			"commit_ratio":  float64(first.committed) / float64(first.injected),
			"final_p50_ms":  first.finalP50,
			"goodput_per_s": first.goodput,
		}
		return res, nil
	}
	if len(traced) == 0 {
		return res, nil
	}
	res.values = medianLayers(traced)
	tw, tc := passTimes(traced)
	res.values["trace.wall_ratio"] = median(tw) / median(walls)
	res.values["trace.cpu_ratio"] = median(tc) / median(cpus)
	return res, nil
}

// passTimes returns the passes' wall and CPU seconds.
func passTimes(ps []simPass) (walls, cpus []float64) {
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	return walls, cpus
}

// medianLayers takes each per-layer metric's median over the traced passes.
func medianLayers(ps []simPass) map[string]float64 {
	samples := make(map[string][]float64)
	for _, p := range ps {
		for k, v := range p.layers {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]float64, len(samples))
	for k, vs := range samples {
		out[k] = median(vs)
	}
	return out
}

func runSurge(cfg runConfig) (outcome, error) {
	return runSim(cfg, surgeCase(cfg.seed, 1))
}

func runContention(cfg runConfig) (outcome, error) {
	return runSim(cfg, contentionCase(cfg.seed, 1))
}

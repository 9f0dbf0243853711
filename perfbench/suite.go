package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"planet/internal/cluster"
	planet "planet/internal/core"
	"planet/internal/experiments"
	"planet/internal/regions"
	"planet/internal/workload"
)

// runSuite is paper-suite: passes over every experiment in
// experiments.Registry at full size, each called through experiments.Find
// with the run's seed and otherwise default settings, so every experiment
// picks its own scheduler. The oracles: every experiment returns without
// error and with metrics, and every pass reproduces the first pass's
// published metrics. The transaction metrics summarize what the
// experiments publish (see suiteSummary).
func runSuite(cfg runConfig) (outcome, error) {
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		d, err := timeSetup(func() (func(), error) { return suiteSetup(cfg.seed) })
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d.Seconds())
	}

	ecfg := experiments.Config{Seed: cfg.seed}
	perExp := make(map[string][]float64)
	var walls, cpus, peaks []float64
	var published, first map[string]float64
	var oracleErr error
	passes := 0
	deadline := time.Now().Add(cfg.seconds)
	var longest time.Duration
	for passes < 1 || time.Now().Add(longest).Before(deadline) {
		if err := resetPeakRSS(); err != nil {
			return outcome{}, err
		}
		passStart := time.Now()
		published = make(map[string]float64)
		var wall, cpu time.Duration
		for _, e := range experiments.Registry {
			run, ok := experiments.Find(e.ID)
			if !ok {
				return outcome{}, fmt.Errorf("experiment %s not found", e.ID)
			}
			// Every experiment starts from a collected heap, as if run on
			// its own, so neither its time nor the peak memory depends on
			// the garbage its predecessors left. The collection is not
			// timed: a pass's wall and CPU sum its experiments' calls.
			runtime.GC()
			cpu0, wall0 := cpuTime(), time.Now()
			res, err := run(ecfg)
			d := time.Since(wall0)
			wall, cpu = wall+d, cpu+cpuTime()-cpu0
			perExp[e.ID] = append(perExp[e.ID], d.Seconds())
			switch {
			case err != nil:
				oracleErr = fmt.Errorf("experiment %s: %w", e.ID, err)
			case len(res.Metrics) == 0:
				oracleErr = fmt.Errorf("experiment %s returned no metrics", e.ID)
			}
			for k, v := range res.Metrics {
				published[e.ID+"."+k] = v
			}
			if oracleErr != nil {
				break
			}
		}
		peak, err := peakRSSMB()
		if err != nil {
			return outcome{}, err
		}
		walls, cpus, peaks = append(walls, wall.Seconds()), append(cpus, cpu.Seconds()), append(peaks, peak)
		longest = max(longest, time.Since(passStart))
		passes++
		if oracleErr == nil && first != nil && !sameBits(published, first) {
			oracleErr = errors.New("same seed, different published metrics across passes")
		}
		if oracleErr != nil {
			break
		}
		first = published
	}
	res := outcome{attempted: uint64(passes * len(experiments.Registry)), oracleErr: oracleErr}
	if oracleErr != nil {
		res.failed = 1
		return res, nil
	}
	if cfg.trace {
		// Every pass times its experiments, traced or not, so a traced run
		// adds no work to measure: trace.* report 0.
		res.values = map[string]float64{"core.final_p99_ms": suiteSummary(first, isP99, geomean)}
		for id, ts := range perExp {
			res.values["experiments."+id+"_s"] = median(ts)
		}
		return res, nil
	}
	res.values = map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"cpu_s":         median(cpus),
		"peak_rss_mb":   median(peaks),
		"commit_ratio":  suiteSummary(first, isCommitRate, mean),
		"final_p50_ms":  suiteSummary(first, isFinalP50, geomean),
		"goodput_per_s": suiteSummary(first, isGoodput, mean),
	}
	return res, nil
}

// suiteSetup is what an experiment does before its workload starts: build
// the paper's five-region cluster on the default scheduler, open a DB over
// it and seed a thousand-key space. It returns the cluster's cleanup.
func suiteSetup(seed int64) (func(), error) {
	c, err := cluster.New(cluster.Config{Topology: regions.Five(), Seed: seed, VirtualTime: true})
	if err != nil {
		return nil, err
	}
	if _, err := planet.Open(planet.Config{Cluster: c}); err != nil {
		closeSim(c)
		return nil, err
	}
	workload.Buy{Products: workload.Uniform{Prefix: "item-", N: 1000}}.Seed(c)
	return func() { closeSim(c) }, nil
}

// The suite's transaction metrics summarize what its experiments publish:
// the mean of every commit rate and of every goodput, and the geometric
// mean (each experiment's relative change weighs the same) of every
// final-latency median and every p99, all in WAN time. Speculative and
// accept-stage medians are left out: they sit near zero and would swing a
// geometric mean.
func isCommitRate(k string) bool { return strings.HasSuffix(k, "commit_rate") }
func isGoodput(k string) bool    { return strings.HasSuffix(k, "goodput") }
func isP99(k string) bool        { return strings.Contains(k, "p99") && strings.HasSuffix(k, "_ms") }
func isFinalP50(k string) bool {
	if !strings.Contains(k, "p50") || !strings.HasSuffix(k, "_ms") {
		return false
	}
	for _, other := range []string{"perceived", "spec", "accept"} {
		if strings.Contains(k, other) {
			return false
		}
	}
	return true
}

// sameBits reports whether two metric maps are bit-identical.
func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || math.Float64bits(va) != math.Float64bits(vb) {
			return false
		}
	}
	return true
}

func suiteSummary(published map[string]float64, match func(string) bool, agg func([]float64) float64) float64 {
	var xs []float64
	for k, v := range published {
		if match(k) {
			xs = append(xs, v)
		}
	}
	return agg(xs)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	return math.Exp(logs / float64(n))
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"planet/internal/metrics"
)

// smokeSize shrinks the sim workloads' arrival counts for tests.
const smokeSize = 0.1

// TestSimDeterminism runs each sim workload twice on one seed at smoke size
// and requires the virtual-time outcome (commit ratio, apologies, WAN
// latencies and goodput) to match bit for bit.
func TestSimDeterminism(t *testing.T) {
	cases := map[string]struct {
		mk func(int64, float64) simCase
		// drives checks the pass reached the path the workload is for.
		drives func(virtualOutcome) bool
	}{
		"sim-surge":      {surgeCase, func(o virtualOutcome) bool { return o.rejected > 0 }},
		"sim-contention": {contentionCase, func(o virtualOutcome) bool { return o.apologies > 0 }},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var outs [2]virtualOutcome
			for i := range outs {
				p, err := runSimPass(c.mk(42, smokeSize), false)
				if err != nil {
					t.Fatalf("pass %d: %v", i, err)
				}
				outs[i] = p.out
			}
			a, b := outs[0], outs[1]
			if a.injected == 0 || a.committed == 0 {
				t.Fatalf("empty run: %+v", a)
			}
			if !c.drives(a) {
				t.Fatalf("surge must shed arrivals, contention must apologize: %+v", a)
			}
			if a.injected != b.injected || a.committed != b.committed || a.aborted != b.aborted ||
				a.rejected != b.rejected || a.speculated != b.speculated || a.apologies != b.apologies ||
				a.virtual != b.virtual {
				t.Fatalf("counts differ:\n%+v\n%+v", a, b)
			}
			for _, f := range [][2]float64{
				{a.finalP50, b.finalP50}, {a.finalP99, b.finalP99},
				{a.perceivedP50, b.perceivedP50}, {a.goodput, b.goodput},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("virtual-time metrics differ:\n%+v\n%+v", a, b)
				}
			}
		})
	}
}

// TestTracedPassReportsLayers checks a traced sim-contention pass fills the
// layers it touches and drives the paths the workload is for: fast-path
// rejects, classic runs, coordinator fallbacks, recovery, commit timeouts
// and apologies.
func TestTracedPassReportsLayers(t *testing.T) {
	p, err := runSimPass(contentionCase(7, smokeSize), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"workload.build_us", "core.commit_call_us", "predictor.at_submit_ns",
		"mdcc.fast_accept_ratio", "simnet.msgs_per_commit", "stage.option_rpc_ms",
	} {
		if !(p.layers[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, p.layers[name])
		}
	}
	if r := p.layers["mdcc.fast_accept_ratio"]; r >= 1 {
		t.Errorf("mdcc.fast_accept_ratio = %v, want fast-path rejects", r)
	}
	for _, name := range []string{
		"mdcc.classic_runs_per_commit", "mdcc.fallbacks_per_txn", "mdcc.recovery_runs", "mdcc.timeouts", "core.apology_ratio",
	} {
		if !(p.layers[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, p.layers[name])
		}
	}
	t.Logf("smoke contention: fast accept %.3f, classic runs/commit %.3f, fallbacks/txn %.3f, recovery runs %v, timeouts %v, apology ratio %.4f",
		p.layers["mdcc.fast_accept_ratio"], p.layers["mdcc.classic_runs_per_commit"], p.layers["mdcc.fallbacks_per_txn"],
		p.layers["mdcc.recovery_runs"], p.layers["mdcc.timeouts"], p.layers["core.apology_ratio"])
}

// TestBenchmarkJSON checks the repo's BENCHMARK.json declares exactly the
// metrics this program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, perfbench has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, m, d)
		}
	}
}

// TestHistQuantile checks the interpolated estimate tracks the true
// quantile of a spread of samples far closer than the bucket width.
func TestHistQuantile(t *testing.T) {
	h := metrics.NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(100*time.Millisecond + time.Duration(i)*10*time.Microsecond)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		want := 100 + q*100 // ms
		got := ms(histQuantile(h, q))
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.3fms, want %.3fms within 1%%", q, got, want)
		}
	}
}

package main

import (
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"planet/internal/metrics"
	"planet/internal/obs"
)

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// histQuantile estimates the q-quantile of a latency histogram by linear
// interpolation inside the bucket that holds it (the way Prometheus'
// histogram_quantile does), clamped to the exact observed range. The
// histogram's own Quantile returns bucket midpoints, which move in 5% steps.
func histQuantile(h *metrics.Histogram, q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	lower, below := float64(h.Min()), 0.0
	for _, b := range h.CumulativeBuckets() {
		upper, cum := float64(b.UpperBound), float64(b.Count)
		if cum >= target {
			if lower > upper {
				lower = upper
			}
			d := lower + (target-below)/(cum-below)*(upper-lower)
			return clampDur(time.Duration(d), h.Min(), h.Max())
		}
		lower, below = upper, cum
	}
	return h.Max()
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set size (VmHWM) from its current size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns this process's peak resident set size since the last
// resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// stageSelfMs returns each reported stage's mean self-time in milliseconds
// from an attribution snapshot, divided by div (the WAN time scale for
// simulated runs, 1 for real ones). decide_broadcast is a container whose
// one child per span is replica_wal, so its self-time is the difference of
// the two means; every other reported stage is a leaf.
func stageSelfMs(snap obs.Snapshot, div float64) map[string]float64 {
	mean := make(map[string]float64, len(snap.Stages))
	for _, st := range snap.Stages {
		mean[st.Stage] = float64(st.Mean) / float64(time.Millisecond)
	}
	out := make(map[string]float64, len(stageNames))
	for _, name := range stageNames {
		v := mean[name]
		if name == "decide_broadcast" {
			v -= mean["replica_wal"]
		}
		out["stage."+name+"_ms"] = math.Max(v, 0) / div
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

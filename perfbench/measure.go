package main

import (
	"sort"
	"sync"
	"time"
)

// level collects one load level's per-query measurements: latency from
// each query's due time, and the compile+run time of its solve. The level
// is measured in windows (the passes of a closed loop, equal shares of an
// open loop's schedule) and each timing is the median of its per-window
// values, so a burst of noise from the shared host that hits one window
// does not move the result.
type level struct {
	name    string
	limitMS float64
	// closed marks a closed loop, whose throughput is also taken per
	// window; an open loop's throughput is set by its schedule and is
	// taken over the whole level.
	closed bool

	mu       sync.Mutex
	start    time.Time
	lastDue  time.Time
	lastDone time.Time
	samples  []sample
	lagMS    []float64
	ok       int
	failed   int
	within   int
}

type sample struct {
	win        int
	latMS      float64
	solveMS    float64
	ok, within bool
}

func newLevel(name string, limitMS float64, closed bool, start time.Time) *level {
	return &level{name: name, limitMS: limitMS, closed: closed, start: start, lastDue: start, lastDone: start}
}

// done records one query of window win. A failed or refused query misses
// the latency limit.
func (l *level) done(win int, due time.Time, solve time.Duration, ok bool) {
	now := time.Now()
	s := sample{win: win, latMS: ms(now.Sub(due)), solveMS: ms(solve), ok: ok}
	s.within = ok && s.latMS <= l.limitMS
	l.mu.Lock()
	defer l.mu.Unlock()
	if due.After(l.lastDue) {
		l.lastDue = due
	}
	if now.After(l.lastDone) {
		l.lastDone = now
	}
	l.samples = append(l.samples, s)
	switch {
	case !ok:
		l.failed++
	case s.within:
		l.ok++
		l.within++
	default:
		l.ok++
	}
}

// wallSec is the level's span: from its start to its last completion.
func (l *level) wallSec() float64 { return l.lastDone.Sub(l.start).Seconds() }

// windows groups the samples by window.
func (l *level) windows() [][]sample {
	byWin := map[int][]sample{}
	for _, s := range l.samples {
		byWin[s.win] = append(byWin[s.win], s)
	}
	keys := make([]int, 0, len(byWin))
	for k := range byWin {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]sample, len(keys))
	for i, k := range keys {
		out[i] = byWin[k]
	}
	return out
}

// latencies returns the successful samples' latencies and solve times.
func latencies(ss []sample) (lat, solve []float64) {
	for _, s := range ss {
		if s.ok {
			lat = append(lat, s.latMS)
			solve = append(solve, s.solveMS)
		}
	}
	return lat, solve
}

// perWindow is the median over windows of f applied to each window.
func (l *level) perWindow(f func([]sample) float64) float64 {
	var vs []float64
	for _, w := range l.windows() {
		vs = append(vs, f(w))
	}
	return quantile(vs, 0.5)
}

func (l *level) latQ(q float64) float64 {
	return l.perWindow(func(w []sample) float64 { lat, _ := latencies(w); return quantile(lat, q) })
}

func (l *level) solveQ(q float64) float64 {
	return l.perWindow(func(w []sample) float64 { _, solve := latencies(w); return quantile(solve, q) })
}

// rate is the completions per second (all, or within the latency limit):
// over the whole level for an open loop, whose offered load is set by its
// schedule; per window for a closed loop.
func (l *level) rate(withinOnly bool) float64 {
	count := func(ss []sample) float64 {
		n := 0
		for _, s := range ss {
			if s.ok && (s.within || !withinOnly) {
				n++
			}
		}
		return float64(n)
	}
	if !l.closed {
		return count(l.samples) / l.wallSec()
	}
	// A closed loop's window is timed by the sum of its solves, not by its
	// span: the benchmark's own result checks between solves are not
	// charged to the program.
	return l.perWindow(func(w []sample) float64 {
		busyMS := 0.0
		for _, s := range w {
			busyMS += s.solveMS
		}
		return count(w) / (busyMS / 1e3)
	})
}

// meets reports whether the level held its latency limit: no failures, p90
// latency within the limit, and a backlog that drained within the limit
// after the last send (a growing queue fails the last test).
func (l *level) meets() bool {
	return l.failed == 0 && l.ok > 0 && l.latQ(0.9) <= l.limitMS &&
		ms(l.lastDone.Sub(l.lastDue)) <= l.limitMS
}

// setEndToEnd reports the end-to-end metrics from a workload's one level,
// which is both its nominal and its top rate: lat_p90_ms_hi repeats the
// p90, and max_rate_qps is the level's throughput when it meets its limit
// and 0 otherwise.
func setEndToEnd(rep *report, l *level) {
	rep.set("solves_per_s", "1/s", l.rate(false))
	rep.set("solve_p50_ms", "ms", l.solveQ(0.5))
	rep.set("solve_p90_ms", "ms", l.solveQ(0.9))
	rep.set("lat_p50_ms", "ms", l.latQ(0.5))
	rep.set("lat_p90_ms", "ms", l.latQ(0.9))
	rep.set("lat_p90_ms_hi", "ms", l.latQ(0.9))
	rep.set("goodput_qps", "1/s", l.rate(true))
	maxRate := 0.0
	if l.meets() {
		maxRate = l.rate(false)
	}
	rep.set("max_rate_qps", "1/s", maxRate)
	lat, solve := latencies(l.samples)
	rep.note("level %-8s ok %4d failed %3d within %4d wall %7.3fs windows %d: lat p50 %8.2fms p90 %8.2fms, solve p50 %8.2fms p90 %8.2fms (n=%d; whole level: lat p50 %.2f p90 %.2f, solve p50 %.2f p90 %.2f) meets %v",
		l.name, l.ok, l.failed, l.within, l.wallSec(), len(l.windows()), l.latQ(0.5), l.latQ(0.9),
		l.solveQ(0.5), l.solveQ(0.9), len(lat), quantile(lat, 0.5), quantile(lat, 0.9),
		quantile(solve, 0.5), quantile(solve, 0.9), l.meets())
}

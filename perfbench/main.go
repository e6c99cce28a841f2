// Command perfbench is the repository benchmark: it runs one named
// workload against the program's public entry points, checks every output
// against a serial reference, and prints its metrics as the last line of
// standard output, one JSON object. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it reports per-layer metrics taken
// from spans the benchmark wraps around its own calls into each layer. See
// RATIONALE.md for what each workload and metric is for.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-churn --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opts are the run's arguments.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome. Workload goroutines share it.
type report struct {
	mu         sync.Mutex
	attempted  int
	succeeded  int
	failed     int
	mismatches []string // the first few, for the report
	nMismatch  int
	metrics    map[string]metric
	out        io.Writer
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records a wrong output; any mismatch fails the run.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nMismatch++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// outcome counts one query. Failed and refused queries count against the
// attempted total; they are never dropped.
func (r *report) outcome(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		r.succeeded++
	} else {
		r.failed++
	}
}

// note prints one line of the human-readable report (standard output,
// before the result line).
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.out, format+"\n", args...)
}

var workloads = map[string]func(opts, *report) error{
	"solve-cold":  solveCold,
	"fleet-churn": fleetChurn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solve-cold or fleet-churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 45, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	rep := &report{metrics: map[string]metric{}, out: out}
	rep.note("workload %s seed %d seconds %g trace %d", *name, o.seed, o.seconds, *traceFlag)
	if err := wl(o, rep); err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.trace {
		fillPerLayer(rep)
	}
	rep.note("queries attempted %d, succeeded %d, failed %d", rep.attempted, rep.succeeded, rep.failed)
	for _, m := range rep.mismatches {
		rep.note("MISMATCH: %s", m)
	}
	if rep.nMismatch > 0 {
		rep.note("%d mismatches", rep.nMismatch)
	}
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.note("%-36s %14.6g %s", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.nMismatch == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if rep.nMismatch > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resetPeakRSS returns the set-up's and the references' garbage to the
// system and restarts the resident-set high-water mark, so that
// peak_rss_mb, read right after them, covers the workload's timed levels.
func resetPeakRSS(rep *report) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rep.note("peak RSS not reset, so it includes set-up: %v", err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 9

// setups times a workload's set-up. An untraced run repeats it setupReps
// times: the first half before the timed levels (the last of these builds
// the environment they use) and the rest after them, so the median
// samples the shared host across the whole run rather than one moment of
// it. A traced run, which reports no setup_s, sets up once.
type setups[E any] struct {
	build func() (E, error)
	close func(E)
	secs  []float64
}

// start sets up the environment the timed levels use; earlier set-ups are
// closed.
func (s *setups[E]) start(o opts) (E, error) {
	n := setupReps/2 + 1
	if o.trace {
		n = 1
	}
	var env E
	for i := 0; i < n; i++ {
		if i > 0 {
			s.close(env)
		}
		e, err := s.timed()
		if err != nil {
			return env, err
		}
		env = e
	}
	return env, nil
}

// finish runs the remaining set-ups, closing each, and reports setup_s.
func (s *setups[E]) finish(rep *report) error {
	for len(s.secs) < setupReps {
		env, err := s.timed()
		if err != nil {
			return err
		}
		s.close(env)
	}
	sorted := append([]float64(nil), s.secs...)
	sort.Float64s(sorted)
	rep.note("set-up x%d: median %.3fs, min %.3fs, max %.3fs", len(sorted), quantile(sorted, 0.5), sorted[0], sorted[len(sorted)-1])
	rep.set("setup_s", "s", quantile(sorted, 0.5))
	return nil
}

// timed runs one set-up. The garbage of earlier ones is collected first,
// so repetition neither grows the live heap nor leaves the timing to GC.
func (s *setups[E]) timed() (E, error) {
	runtime.GC()
	start := time.Now()
	env, err := s.build()
	if err == nil {
		s.secs = append(s.secs, time.Since(start).Seconds())
	}
	return env, err
}

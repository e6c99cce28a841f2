package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// The metrics the benchmark prints must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	rep := &report{metrics: map[string]metric{}, out: io.Discard}
	l := newLevel("x", 1000, true, time.Now())
	l.done(0, time.Now(), time.Millisecond, true)
	setEndToEnd(rep, l)
	rep.set("setup_s", "s", 1)
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	same(t, "end_to_end", rep.metrics, want)

	rep = &report{metrics: map[string]metric{}, out: io.Discard}
	fillPerLayer(rep)
	want = map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	same(t, "per_layer", rep.metrics, want)
}

func same(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if u, declared := want[n]; !ok || !declared || g.Unit != u {
			t.Errorf("%s metric %s: printed %v (unit %q), BENCHMARK.json %v (unit %q)", what, n, ok, g.Unit, declared, u)
		}
	}
}

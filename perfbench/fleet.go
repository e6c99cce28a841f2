package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"remac/internal/engine"
	"remac/internal/gateway"
	"remac/internal/httpapi"
	"remac/internal/serve"
)

// fleet-churn: open-loop Poisson arrivals at one rate through a
// gateway.Gateway fronting two shards, each a serve.Server behind
// httpapi.NewServeMux reached over loopback HTTP. Routing is by dataset
// affinity, two tenants run under quotas, the background prober is off,
// and seeded InvalidateDataset writes run between the reads, so cache
// entries are evicted and refilled (and an invalidated dataset may move
// to the other shard).
const (
	fleetShards  = 2
	fleetRate    = 10
	fleetLimitMS = 1000
	// fleetWriteEvery is the mean interval between invalidations.
	fleetWriteEvery = 2 * time.Second
)

// fleetSessions: five, so the p50 and p90 ranks fall inside a session's
// cluster of latencies, and all light (at most about 40 ms of work each)
// so that queueing on a shard's single worker stays short: the gateway's
// own overhead stays visible, and the p90 does not swing with which
// datasets the seeded writes happen to co-locate. Two share cri1 and two
// red2, whose loop-constant producers they reuse on its home shard.
var fleetSessions = []program{
	{alg: "DFP", dataset: "cri1", iters: serveIters},
	{alg: "GD", dataset: "cri1", iters: serveIters},
	{alg: "GNMF", dataset: "red2", iters: serveIters},
	{alg: "BFGS", dataset: "red1", iters: serveIters},
	{alg: "GD", dataset: "red2", iters: serveIters},
}

var (
	fleetTenants = []string{"tenant-a", "tenant-b"}
	// fleetWrites are the datasets the writes invalidate. Each write moves
	// its dataset's home shard and empties its cache namespace. Only red1,
	// whose one session is the lightest, is written: with every dataset
	// written, where the writes happened to co-locate the heavier
	// sessions set the p90, which then swung by 40% between seeds.
	fleetWrites = []string{"red1"}
	// fleetQuota is loose enough that the nominal rate is never refused:
	// the quota path is checked on every query without shaping the load.
	fleetQuota = gateway.TenantQuota{QPS: 50, Burst: 50, MaxConcurrent: 32}
)

type fleetEnv struct {
	gw       *gateway.Gateway
	shards   []*serve.Server
	fronts   []*httptest.Server
	sessions []*session

	mu        sync.Mutex
	respBytes []float64 // traced reads' encoded reply sizes
}

func fleetSetup() (*fleetEnv, error) {
	sessions, err := buildSessions(fleetSessions)
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{sessions: sessions}
	budget := gateway.NewRetryBudget(64, 0.5)
	var insts []gateway.Instance
	for i := 0; i < fleetShards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		srv := serve.New(serve.Config{ShardID: id, Workers: 1, BatchWindow: serveBatchWindow})
		front := httptest.NewServer(httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{}))
		env.shards = append(env.shards, srv)
		env.fronts = append(env.fronts, front)
		insts = append(insts, gateway.NewRemote(gateway.RemoteConfig{
			BaseURL: front.URL,
			ShardID: id,
			Client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
			Budget:  budget,
		}))
	}
	quotas := map[string]gateway.TenantQuota{}
	for _, t := range fleetTenants {
		quotas[t] = fleetQuota
	}
	env.gw = gateway.NewWithInstances(gateway.Config{Seed: 17, Quotas: quotas}, insts)
	// Warm-up: every session on every shard, so both hold every dataset,
	// plan and intermediate before the first write moves a dataset.
	for _, inst := range insts {
		for _, s := range sessions {
			if _, err := inst.Do(context.Background(), s.q); err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up %v: %w", s.program, err)
			}
		}
	}
	return env, nil
}

func (e *fleetEnv) close() {
	if e == nil {
		return
	}
	e.gw.Shutdown(context.Background())
	for i := range e.fronts {
		e.fronts[i].Close()
		e.shards[i].Shutdown(context.Background())
	}
}

func fleetChurn(o opts, rep *report) error {
	su := &setups[*fleetEnv]{build: fleetSetup, close: (*fleetEnv).close}
	env, err := su.start(o)
	if err != nil {
		return err
	}
	defer env.close()
	if err := addReferences(env.sessions); err != nil {
		return err
	}
	if !o.trace {
		dropValues(env.sessions)
		resetPeakRSS(rep)
		l := env.level(o.seed, "nominal", o.seconds, nil, rep)
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		setEndToEnd(rep, l)
		return su.finish(rep)
	}
	base := env.level(o.seed, "untraced", o.seconds/2, nil, rep)
	tr := newTracer()
	before := env.gw.Stats()
	traced := env.level(o.seed, "traced", o.seconds/2, tr, rep)
	after := env.gw.Stats()
	acc := tr.account()
	setTraceAccounting(rep, acc, base, traced)
	setFleetLayers(rep, acc, before, after)
	rep.set("httpapi.response_bytes", "bytes", mean(env.respBytes))
	if err := setLibraryLayers(rep, env.sessions); err != nil {
		return err
	}
	kernelPass(rep, sessionInputs(env.sessions), sessionOutputs(env.sessions))
	return nil
}

// level sends the read schedule with the seeded writes interleaved, and
// waits for it to drain. Writes are not queries: they are timed as
// gateway.inval spans and do not count as attempted.
func (e *fleetEnv) level(seed int64, name string, seconds float64, tr *tracer, rep *report) *level {
	n := arrivals(fleetRate, seconds, len(e.sessions))
	writes := len(fleetWrites) * int(seconds/fleetWriteEvery.Seconds()/float64(len(fleetWrites))+0.5)
	reads := Schedule(seed, fleetRate, n)
	labels := Labels(seed, n, len(e.sessions))
	writeAt := Schedule(seed+1, float64(writes)/(float64(n)/fleetRate), writes)
	writeDS := Shuffled(seed+1, writes, len(fleetWrites))

	// Merge both schedules into one; negative labels are writes.
	type event struct {
		at    time.Duration
		label int
		win   int
	}
	var events []event
	for i, r, w := 0, 0, 0; i < n+writes; i++ {
		if w < writes && (r == n || writeAt[w] < reads[r]) {
			events = append(events, event{writeAt[w], -1 - writeDS[w], 0})
			w++
		} else {
			events = append(events, event{reads[r], labels[r], r * openWindows / n})
			r++
		}
	}
	offsets := make([]time.Duration, len(events))
	for i, ev := range events {
		offsets[i] = ev.at
	}

	start := time.Now()
	l := newLevel(name, fleetLimitMS, false, start)
	lags := OpenLoop(start, offsets, func(i int, due time.Time) {
		if lb := events[i].label; lb < 0 {
			r := tr.begin(due)
			r.call("gateway.inval", 0, func() { e.gw.InvalidateDataset(fleetWrites[-1-lb]) })
			r.end()
			return
		}
		e.read(events[i].label, events[i].win, due, l, tr, rep)
	})
	for i, lag := range lags {
		if events[i].label >= 0 {
			l.lagMS = append(l.lagMS, ms(lag))
		}
	}
	rep.note("level %s: %d reads, %d writes", name, n, writes)
	return l
}

// read sends one session's query through the gateway. A traced read also
// re-hashes and re-encodes the reference values of that query — the same
// cells the shard hashed and encoded for its reply — to time serve.HashValues
// and httpapi.BuildResponse + json.Marshal from outside.
func (e *fleetEnv) read(label, win int, due time.Time, l *level, tr *tracer, rep *report) {
	s := e.sessions[label]
	tenant := fleetTenants[label%len(fleetTenants)]
	r := tr.begin(due)
	var res *gateway.Result
	var err error
	id := r.call("gateway.do", 0, func() {
		res, err = e.gw.Do(context.Background(), gateway.Request{Tenant: tenant, Query: s.q})
	})
	if err == nil && r != nil {
		r.derived("serve.compile", id, seconds2dur(res.CompileSec))
		r.derived("serve.exec", id, seconds2dur(res.WallSec-res.CompileSec))
		var hash uint64
		r.call("serve.hash", 0, func() { hash = serve.HashValues(s.ref.values) })
		local := *res.QueryResult
		local.Values = s.ref.values
		var body []byte
		var merr error
		r.call("httpapi.encode", 0, func() { body, merr = json.Marshal(httpapi.BuildResponse(&local)) })
		if hash != res.ResultHash || merr != nil {
			rep.mismatch("%v: re-hash %016x (wire %016x), encode error %v", s.program, hash, res.ResultHash, merr)
		}
		e.mu.Lock()
		e.respBytes = append(e.respBytes, float64(len(body)))
		e.mu.Unlock()
	}
	r.end()
	rep.outcome(err == nil)
	if err != nil {
		l.done(win, due, 0, false)
		rep.note("%v failed: %v", s.program, err)
		return
	}
	l.done(win, due, seconds2dur(res.WallSec), true)
	if msg := s.ref.checkServed(res.ResultHash, res.SimulatedSec, res.FLOP,
		res.IntermediateHits, res.IntermediateMisses, res.SharedHits); msg != "" {
		rep.mismatch("%v via %s: %s", s.program, res.ShardID, msg)
	}
}

// setFleetLayers reports the gateway's overhead (Do latency minus the
// shard-reported wall time: routing, quota, the wire both ways, the
// shard's queue and its hashing and encoding), the writes' cost, and the
// counters over the traced level.
func setFleetLayers(rep *report, acc accounting, before, after gateway.Stats) {
	rep.set("gateway.overhead_p50_ms", "ms", quantile(acc.self["gateway.do"], 0.5))
	rep.set("gateway.overhead_p90_ms", "ms", quantile(acc.self["gateway.do"], 0.9))
	rep.set("gateway.inval_ms", "ms", acc.total.mean("gateway.inval"))
	rep.set("serve.compile_ms", "ms", acc.total.mean("serve.compile"))
	rep.set("serve.exec_ms", "ms", acc.total.mean("serve.exec"))
	rep.set("serve.hash_ms", "ms", acc.total.mean("serve.hash"))
	rep.set("httpapi.encode_ms", "ms", acc.total.mean("httpapi.encode"))
	var attempts, retries uint64
	for i := range after.PerShard {
		if w := after.PerShard[i].Wire; w != nil {
			attempts += w.Attempts
			retries += w.Retries
		}
		if w := before.PerShard[i].Wire; w != nil {
			attempts -= w.Attempts
			retries -= w.Retries
		}
	}
	routed := after.Routed - before.Routed
	rep.note("gateway: %d routed, %d wire attempts, %d retries, %d spilled, %d quota-rejected, %d invalidations",
		routed, attempts, retries, after.Spilled-before.Spilled, after.QuotaRejected-before.QuotaRejected,
		after.Invalidations-before.Invalidations)
	rep.set("gateway.wire_attempts_per_query", "ratio", ratio(attempts, routed))
	rep.set("gateway.wire_retries", "count", float64(retries))
	rep.set("gateway.quota_rejected", "count", float64(after.QuotaRejected-before.QuotaRejected))
	rep.set("gateway.spilled", "count", float64(after.Spilled-before.Spilled))
	setSnapshotLayers(rep, before.Merged, after.Merged)
}

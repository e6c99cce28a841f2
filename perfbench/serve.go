package main

import (
	"context"
	"fmt"
	"time"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/matrix"
	"remac/internal/serve"
)

// A session is one of fleet-churn's query streams: it repeats one program
// on its dataset against shards configured as remac-serve runs them.
const (
	serveIters = 3
	// serveBatchWindow is remac-serve's default -batch-window.
	serveBatchWindow = 2 * time.Millisecond
)

type session struct {
	program
	q   serve.Query
	ref *reference
}

// buildSessions materialises the sessions' datasets through
// httpapi.QueryBuilder, as the HTTP front-ends do.
func buildSessions(progs []program) ([]*session, error) {
	b := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	var out []*session
	for _, p := range progs {
		q, err := b.Build(httpapi.QueryRequest{Algorithm: p.alg, Dataset: p.dataset, Iterations: p.iters})
		if err != nil {
			return nil, err
		}
		out = append(out, &session{program: p, q: q})
	}
	return out, nil
}

// addReferences computes every session's serial reference.
func addReferences(sessions []*session) error {
	for _, s := range sessions {
		ref, err := computeReference(s.q.Script, s.q.Inputs, serveConfig(s.iters), true)
		if err != nil {
			return fmt.Errorf("%v reference: %w", s.program, err)
		}
		s.ref = ref
	}
	return nil
}

// sessionOutputs returns the outputs of the sessions' reference solves.
func sessionOutputs(sessions []*session) []*matrix.Matrix {
	var out []*matrix.Matrix
	for _, s := range sessions {
		out = append(out, outputValues(s.program, s.ref.values)...)
	}
	return out
}

// dropValues lets the references' cells go when no timed call needs them.
func dropValues(sessions []*session) {
	for _, s := range sessions {
		s.ref.values = nil
	}
}

func sessionInputs(sessions []*session) []*matrix.Matrix {
	var out []*matrix.Matrix
	for _, s := range sessions {
		for _, in := range s.q.Inputs {
			out = append(out, in.Data)
		}
	}
	return out
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setSnapshotLayers reports cache and execution counters from the delta
// of two server snapshots, each ratio with its base.
func setSnapshotLayers(rep *report, before, after serve.Snapshot) {
	planHits, planMiss := after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses
	interHits, interMiss := after.InterHits-before.InterHits, after.InterMisses-before.InterMisses
	completed := after.Completed - before.Completed
	executions := after.Executions - before.Executions
	rep.note("plan cache %d/%d hits, intermediate cache %d/%d hits, %d executions for %d completed queries",
		planHits, planHits+planMiss, interHits, interHits+interMiss, executions, completed)
	rep.set("serve.plan_hit_ratio", "ratio", ratio(planHits, planHits+planMiss))
	rep.set("serve.inter_hit_ratio", "ratio", ratio(interHits, interHits+interMiss))
	rep.set("serve.executions_per_query", "ratio", ratio(executions, completed))
	rep.set("serve.mqo_shared_hits", "count", float64(after.MQOSharedHits-before.MQOSharedHits))
	rep.set("serve.rejected", "count", float64(after.Rejected-before.Rejected))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setLibraryLayers times the library layers on the workload's programs
// with one traced serial solve each (the timed window reaches them only
// inside the server).
func setLibraryLayers(rep *report, sessions []*session) error {
	tr := newTracer()
	var refs []*reference
	for _, s := range sessions {
		r := tr.begin(time.Now())
		_, res, err := libSolve(context.Background(), r, s.q.Script, s.q.Inputs, serveConfig(s.iters),
			engine.RunOptions{})
		r.end()
		if err != nil {
			return err
		}
		if statsOf(res) != s.ref.cold {
			rep.mismatch("%v: library solve %+v, reference %+v", s.program, statsOf(res), s.ref.cold)
		}
		refs = append(refs, s.ref)
	}
	setLibraryMetrics(rep, tr.account(), refs)
	return nil
}

// setLibraryMetrics reports the library layers' time per call from the
// traced solves, and the exact counts summed over the cold references
// (one per distinct program, so they do not depend on the seed).
func setLibraryMetrics(rep *report, acc accounting, refs []*reference) {
	rep.set("lang.parse_ms", "ms", acc.total.mean("lang.parse"))
	rep.set("opt.compile_ms", "ms", acc.total.mean("opt.compile"))
	rep.set("search.busy_ms", "ms", acc.total.mean("search.busy"))
	rep.set("costgraph.busy_ms", "ms", acc.total.mean("costgraph.busy"))
	rep.set("engine.exec_ms", "ms", acc.total.mean("engine.exec"))
	var found, selected, ops int
	var flop, sim float64
	for _, ref := range refs {
		found += ref.found
		selected += ref.selected
		ops += ref.cold.ops
		flop += ref.cold.flop
		sim += ref.cold.sim
	}
	rep.set("opt.options_found", "count", float64(found))
	rep.set("opt.options_selected", "count", float64(selected))
	rep.set("engine.ops", "count", float64(ops))
	rep.set("engine.flop", "count", flop)
	rep.set("engine.sim_s", "s", sim)
}

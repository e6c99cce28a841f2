package main

import (
	"context"
	"fmt"
	"time"

	"remac"
	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/matrix"
	"remac/internal/serve"
)

// solve-cold: one caller in a closed loop, solving a seeded shuffle of
// every (algorithm, dataset) program through the public remac API with
// no caches. Each pass runs the whole set once; a run measures whole
// passes, so every seed solves the same multiset of programs.
const (
	solveIters   = 3
	solveLimitMS = 2000
)

// outputs are the variables each algorithm solves for.
var outputs = map[string][]string{"GD": {"x"}, "DFP": {"x", "H"}, "BFGS": {"x", "H"}, "GNMF": {"W", "H"}}

var (
	solveAlgs     = []string{"GD", "DFP", "BFGS", "GNMF"}
	solveDatasets = []string{"cri1", "red1", "cri2", "cri3", "red2", "red3"}
)

// solveProg is one program with both input bindings: the public API's and
// the library layers' (the same deterministic data, materialised twice).
type solveProg struct {
	program
	script string
	pub    map[string]remac.Input
	lib    map[string]engine.Input
	ref    *reference
}

func solveSetup() ([]*solveProg, error) {
	b := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	var progs []*solveProg
	for _, dsName := range solveDatasets {
		ds, err := remac.LoadDataset(dsName)
		if err != nil {
			return nil, err
		}
		// GD, DFP and BFGS bind the same inputs; bind them once per
		// dataset, as one user solving several models on it would.
		pub := map[bool]map[string]remac.Input{}
		lib := map[bool]map[string]engine.Input{}
		for _, alg := range solveAlgs {
			p := &solveProg{program: program{alg: alg, dataset: dsName, iters: solveIters}}
			if p.script, err = remac.WorkloadScript(alg, solveIters); err != nil {
				return nil, err
			}
			gnmf := alg == "GNMF"
			if pub[gnmf] == nil {
				if pub[gnmf], err = ds.Inputs(alg); err != nil {
					return nil, err
				}
				q, err := b.Build(httpapi.QueryRequest{Algorithm: alg, Dataset: dsName, Iterations: solveIters})
				if err != nil {
					return nil, err
				}
				lib[gnmf] = q.Inputs
			}
			p.pub, p.lib = pub[gnmf], lib[gnmf]
			progs = append(progs, p)
		}
	}
	// Warm-up: one small solve, so lazy runtime set-up is not timed.
	_, err := solvePublic(progs[0])
	return progs, err
}

func solvePublic(p *solveProg) (*remac.Report, error) {
	prog, err := remac.Compile(p.script, p.pub, remac.Config{Iterations: p.iters})
	if err != nil {
		return nil, err
	}
	return prog.RunContext(context.Background(), remac.RunOptions{})
}

func solveCold(o opts, rep *report) error {
	su := &setups[[]*solveProg]{build: solveSetup, close: func([]*solveProg) {}}
	progs, err := su.start(o)
	if err != nil {
		return err
	}

	// References, outside the timed window: the serial library path, and
	// the NoElimination result as an oracle that does not depend on
	// elimination. The traced run keeps the outputs for its kernel pass.
	var outs []*matrix.Matrix
	for _, p := range progs {
		if p.ref, err = computeReference(p.script, p.lib, solveConfig(p.iters), false); err != nil {
			return fmt.Errorf("%v reference: %w", p, err)
		}
		prog, err := remac.Compile(p.script, p.pub, remac.Config{Iterations: p.iters, Strategy: remac.NoElimination})
		if err != nil {
			return err
		}
		oracle, err := prog.Run()
		if err != nil {
			return err
		}
		// Elimination may inline a temporary away or add a hoisted one, so
		// the oracle covers every variable both results bind, which always
		// includes the algorithm's outputs.
		compared := map[string]bool{}
		for name, want := range oracle.Values {
			if got, ok := p.ref.values[name]; ok {
				compared[name] = true
				if !closeTo(got, want) {
					rep.mismatch("%v: %s differs from the NoElimination oracle beyond %g", p, name, oracleTol)
				}
			}
		}
		for _, name := range outputs[p.alg] {
			if !compared[name] {
				rep.mismatch("%v: output %s missing from the adaptive or the NoElimination result", p, name)
			}
		}
		if o.trace {
			outs = append(outs, outputValues(p.program, p.ref.values)...)
		}
		p.ref.values = nil
	}

	if !o.trace {
		// The untraced loop solves through the public API only.
		for _, p := range progs {
			p.lib = nil
		}
		resetPeakRSS(rep)
		l := solveLoop(o.seed, o.seconds, progs, nil, rep)
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		setEndToEnd(rep, l)
		return su.finish(rep)
	}
	base := solveLoop(o.seed, o.seconds/2, progs, nil, rep)
	tr := newTracer()
	traced := solveLoop(o.seed, o.seconds/2, progs, tr, rep)
	acc := tr.account()
	setTraceAccounting(rep, acc, base, traced)
	var refs []*reference
	var inputs []*matrix.Matrix
	for _, p := range progs {
		refs = append(refs, p.ref)
		for _, in := range p.lib {
			inputs = append(inputs, in.Data)
		}
	}
	setLibraryMetrics(rep, acc, refs)
	kernelPass(rep, inputs, outs)
	return nil
}

// solveLoop runs whole shuffled passes until seconds have elapsed; each
// pass is one measurement window. A solve is due when its caller is free,
// so its latency is its solve time. The
// untraced loop goes through the public API; the traced one through the
// library layers, with a span around each call.
func solveLoop(seed int64, seconds float64, progs []*solveProg, tr *tracer, rep *report) *level {
	start := time.Now()
	l := newLevel("closed-1", solveLimitMS, true, start)
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		for _, i := range Shuffled(seed*1000+int64(pass), len(progs), len(progs)) {
			p := progs[i]
			due := time.Now()
			if tr == nil {
				res, err := solvePublic(p)
				l.done(pass, due, time.Since(due), err == nil)
				rep.outcome(err == nil)
				if err != nil {
					rep.note("%v failed: %v", p, err)
					continue
				}
				checkPublic(rep, p, res)
				continue
			}
			r := tr.begin(due)
			_, res, err := libSolve(context.Background(), r, p.script, p.lib, solveConfig(p.iters), engine.RunOptions{})
			r.end()
			l.done(pass, due, time.Since(due), err == nil)
			rep.outcome(err == nil)
			if err != nil {
				rep.note("%v failed: %v", p, err)
				continue
			}
			if got := statsOf(res); got != p.ref.cold {
				rep.mismatch("%v: simulated %+v, reference %+v", p, got, p.ref.cold)
			}
			checkHash(rep, p.program, serve.HashValues(envValues(res)), p.ref)
		}
	}
	return l
}

func checkPublic(rep *report, p *solveProg, res *remac.Report) {
	if res.SimulatedSeconds != p.ref.cold.sim {
		rep.mismatch("%v: simulated %v s, reference %v s", p, res.SimulatedSeconds, p.ref.cold.sim)
	}
	checkHash(rep, p.program, hashCells(cellMap(res.Values)), p.ref)
}

// checkHash requires a result bitwise identical to the reference.
func checkHash(rep *report, p program, got uint64, ref *reference) {
	if got != ref.hash {
		rep.mismatch("%v: result hash %016x, reference %016x", p, got, ref.hash)
	}
}

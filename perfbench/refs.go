package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"remac/internal/cluster"
	"remac/internal/costgraph"
	"remac/internal/engine"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/serve"
	"remac/internal/sparsity"
)

// program is one (algorithm, dataset) query of a workload.
type program struct {
	alg     string
	dataset string
	iters   int
}

func (p program) String() string {
	return p.alg + "/" + p.dataset
}

// simStats is the simulated accounting of one run: the paper's clock.
type simStats struct {
	sim, flop float64
	ops       int
}

func statsOf(res *engine.Result) simStats {
	return simStats{sim: res.Stats.TotalTime(), flop: res.Stats.FLOP, ops: res.Stats.Ops}
}

// reference is the serial library-path result of one program, computed
// outside the timed window. Results are compared by hash; values are kept
// only where a workload needs the cells. cold is a run with no
// cross-query reuse; warm is a run whose every loop-constant producer
// comes from a filled intermediate cache (reuse is free on the simulated
// cluster, so it lowers both clocks).
type reference struct {
	hash       uint64
	values     map[string]*matrix.Matrix
	cold, warm simStats
	found      int
	selected   int
}

// solveConfig is the optimizer configuration remac.Compile builds for an
// adaptive solve; serveConfig is the one serve.Server builds for a query
// from serve.NewQuery. Both must match exactly for bitwise comparison.
func solveConfig(iters int) opt.Config {
	return opt.Config{Strategy: opt.Adaptive, Estimator: sparsity.MNC{}, Combiner: opt.DP,
		Cluster: cluster.DefaultConfig(), Iterations: iters,
		EnumBudget: costgraph.EnumBudget{MaxCombos: 100_000}}
}

func serveConfig(iters int) opt.Config {
	return opt.Config{Strategy: opt.Adaptive, Estimator: sparsity.MNC{},
		Cluster: cluster.DefaultConfig(), Iterations: iters}
}

// libSolve is one solve through the library layers — lang.Parse, input
// metadata, opt.CompileCtx, engine.RunWithOptions — with a span around
// each call when traced. Compile is split by the times the compiled plan
// reports for the block-wise search and the cost-graph probe.
func libSolve(ctx context.Context, r *request, script string, ins map[string]engine.Input,
	cfg opt.Config, ro engine.RunOptions) (*opt.Compiled, *engine.Result, error) {
	var prog *lang.Program
	var err error
	r.call("lang.parse", 0, func() { prog, err = lang.Parse(script) })
	if err != nil {
		return nil, nil, err
	}
	metas := map[string]sparsity.Meta{}
	r.call("sparsity.meta", 0, func() {
		for name, in := range ins {
			metas[name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
		}
	})
	var c *opt.Compiled
	id := r.call("opt.compile", 0, func() { c, err = opt.CompileCtx(ctx, prog, metas, cfg) })
	if err != nil {
		return nil, nil, err
	}
	r.derived("search.busy", id, c.SearchTime)
	r.derived("costgraph.busy", id, c.PlanTime)
	var res *engine.Result
	r.call("engine.exec", 0, func() { res, err = engine.RunWithOptions(ctx, c, ins, nil, ro) })
	if err != nil {
		return nil, nil, err
	}
	return c, res, nil
}

// outputValues returns the values of the algorithm's output variables.
func outputValues(p program, values map[string]*matrix.Matrix) []*matrix.Matrix {
	var out []*matrix.Matrix
	for _, name := range outputs[p.alg] {
		if m, ok := values[name]; ok {
			out = append(out, m)
		}
	}
	return out
}

func envValues(res *engine.Result) map[string]*matrix.Matrix {
	out := make(map[string]*matrix.Matrix, len(res.Env))
	for name, v := range res.Env {
		out[name] = v.Data()
	}
	return out
}

// mapCache is a private engine.IntermediateCache for the warm reference.
type mapCache map[string]engine.Intermediate

func (m mapCache) Get(k string) (engine.Intermediate, bool) { v, ok := m[k]; return v, ok }
func (m mapCache) Put(k string, v engine.Intermediate)      { m[k] = v }

// computeReference runs a program serially, cold; with warm, it then runs
// it twice against a private intermediate cache (the second run is the
// warm one). All runs must agree bitwise.
func computeReference(script string, ins map[string]engine.Input, cfg opt.Config, warm bool) (*reference, error) {
	ctx := context.Background()
	c, cold, err := libSolve(ctx, nil, script, ins, cfg, engine.RunOptions{})
	if err != nil {
		return nil, err
	}
	ref := &reference{values: envValues(cold), cold: statsOf(cold), selected: len(c.SelectedKeys)}
	ref.hash = serve.HashValues(ref.values)
	if hashCells(cellMap(ref.values)) != ref.hash {
		return nil, fmt.Errorf("hashCells disagrees with serve.HashValues")
	}
	if c.Search != nil {
		ref.found = len(c.Search.Options)
	}
	cache := mapCache{}
	for i := 0; warm && i < 2; i++ {
		res, err := engine.RunWithOptions(ctx, c, ins, nil, engine.RunOptions{Intermediates: cache})
		if err != nil {
			return nil, err
		}
		if h := serve.HashValues(envValues(res)); h != ref.hash {
			return nil, fmt.Errorf("reference run with a private intermediate cache differs bitwise")
		}
		ref.warm = statsOf(res)
	}
	return ref, nil
}

// checkServed compares a served result with the reference: bitwise by
// result hash, and on the simulated clock exactly against the cold or the
// warm reference when the run reused none or all of its loop-constant
// producers (between the two otherwise). It returns "" when the result is
// correct.
func (ref *reference) checkServed(hash uint64, sim, flop float64, hits, misses, sharedHits int) string {
	if hash != ref.hash {
		return fmt.Sprintf("result hash %016x, want %016x", hash, ref.hash)
	}
	consulted, computed := hits+misses, misses-sharedHits
	switch {
	case computed == consulted:
		if sim != ref.cold.sim || flop != ref.cold.flop {
			return fmt.Sprintf("no reuse: sim %v s, %v FLOP; want %v s, %v FLOP", sim, flop, ref.cold.sim, ref.cold.flop)
		}
	case computed == 0:
		if sim != ref.warm.sim || flop != ref.warm.flop {
			return fmt.Sprintf("full reuse: sim %v s, %v FLOP; want %v s, %v FLOP", sim, flop, ref.warm.sim, ref.warm.flop)
		}
	default:
		if flop < ref.warm.flop || flop > ref.cold.flop || sim < ref.warm.sim || sim > ref.cold.sim {
			return fmt.Sprintf("partial reuse: sim %v s, %v FLOP outside the warm/cold references", sim, flop)
		}
	}
	return ""
}

// cells is the read interface remac.Matrix and matrix.Matrix share.
type cells interface {
	Rows() int
	Cols() int
	At(i, j int) float64
}

func cellMap[M cells](in map[string]M) map[string]cells {
	out := make(map[string]cells, len(in))
	for name, m := range in {
		out[name] = m
	}
	return out
}

// hashCells is serve.HashValues over the cells interface, so results of
// the public API (whose matrices hide their storage) hash the same way:
// FNV-64a over the sorted names, each matrix's dimensions, and the bits
// of every cell. Two results hash equal iff they are bitwise identical.
func hashCells(values map[string]cells) uint64 {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, name := range names {
		h.Write([]byte(name))
		m := values[name]
		put(uint64(m.Rows()))
		put(uint64(m.Cols()))
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				put(math.Float64bits(m.At(i, j)))
			}
		}
	}
	return h.Sum64()
}

// oracleTol is the relative tolerance between an adaptive result and the
// NoElimination result of the same program: elimination reorders
// floating-point work, so the two agree to rounding, not bitwise (the
// worst seen over the solve-cold set is 1.5e-11 of the variable's
// largest magnitude).
const oracleTol = 1e-9

// closeTo reports whether got matches want within oracleTol of want's
// largest magnitude, with NaNs in the same places.
func closeTo(got, want cells) bool {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return false
	}
	scale := 0.0
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if v := math.Abs(want.At(i, j)); !math.IsNaN(v) {
				scale = math.Max(scale, v)
			}
		}
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.IsNaN(g) || math.IsNaN(w) {
				if math.IsNaN(g) != math.IsNaN(w) {
					return false
				}
				continue
			}
			if math.Abs(g-w) > oracleTol*scale {
				return false
			}
		}
	}
	return true
}

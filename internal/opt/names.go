package opt

import (
	"fmt"

	"remac/internal/sparsity"
)

// UnknownNameError reports a strategy, estimator or combiner name that
// none of the name tables below lists. Every user-facing surface — the
// public API, the CLIs and the HTTP wire format — parses through these
// tables, so a typo fails typed instead of silently running the default.
type UnknownNameError struct {
	Kind string // "strategy", "estimator" or "combiner"
	Name string
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("unknown %s %q", e.Kind, e.Name)
}

type named[T any] struct {
	name string
	v    T
}

// strategyNames lists the user-selectable strategies, canonical name
// first. SPORESLike and Manual are experiment-only and have no name.
var strategyNames = []named[Strategy]{
	{"adaptive", Adaptive},
	{"none", NoElimination},
	{"no-elimination", NoElimination},
	{"explicit", Explicit},
	{"conservative", Conservative},
	{"aggressive", Aggressive},
	{"automatic", Automatic},
}

var estimatorNames = []named[sparsity.Estimator]{
	{"MNC", sparsity.MNC{}},
	{"MD", sparsity.Metadata{}},
	{"Sample", sparsity.Sampling{Fraction: 0.1}},
}

var combinerNames = []named[Combiner]{
	{"DP", DP},
	{"Enum-DFS", EnumDFS},
	{"Enum-BFS", EnumBFS},
}

// parseName looks name up in table; "" selects the table's first entry,
// the default.
func parseName[T any](kind string, table []named[T], name string) (T, error) {
	if name == "" {
		return table[0].v, nil
	}
	for _, e := range table {
		if e.name == name {
			return e.v, nil
		}
	}
	var zero T
	return zero, &UnknownNameError{Kind: kind, Name: name}
}

// ParseStrategy resolves a strategy name; "" means Adaptive.
func ParseStrategy(name string) (Strategy, error) {
	return parseName("strategy", strategyNames, name)
}

// ParseEstimator resolves a sparsity estimator name; "" means MNC, ReMac's
// reported configuration.
func ParseEstimator(name string) (sparsity.Estimator, error) {
	return parseName("estimator", estimatorNames, name)
}

// ParseCombiner resolves a combiner name; "" means DP.
func ParseCombiner(name string) (Combiner, error) {
	return parseName("combiner", combinerNames, name)
}

// StrategyName is the inverse of ParseStrategy: a strategy's canonical
// name, so ParseStrategy(StrategyName(s)) == s for every named strategy.
// Unnamed strategies report the default's name.
func StrategyName(s Strategy) string {
	for _, e := range strategyNames {
		if e.v == s {
			return e.name
		}
	}
	return strategyNames[0].name
}

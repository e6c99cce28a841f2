package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Tracing is done from outside the program: a span wraps each call the
// benchmark makes into a layer's public function, and a derived span splits
// a call by a duration the layer itself reported (a QueryResult's
// CompileSec, say). A request's root span runs from its due time to the
// end of its last call; its self time is benchmark time no layer accounts
// for, and the accounting check bounds it by eps. The absolute part is
// one Go scheduler time slice: the longest a request's goroutine, runnable
// between two calls, waits for a processor while both are busy in kernels.
const (
	epsAbs = 10 * time.Millisecond
	epsRel = 0.05
)

// span is one timed interval of a request; its id is its index in the
// request, and the root is span 0.
type span struct {
	req    int
	parent int
	name   string
	durMS  float64
}

// tracer keeps every finished request's spans in memory. A nil tracer is
// the untraced run: requests are nil and calls run bare.
type tracer struct {
	mu    sync.Mutex
	reqs  int
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// request collects the spans of one request; it is used by one goroutine.
type request struct {
	tr    *tracer
	start time.Time
	spans []span
}

// begin opens a request whose root span starts at start, its due time.
// The time from then until begin is the load generator's lag in sending
// it, recorded as the loadgen.lag span.
func (tr *tracer) begin(start time.Time) *request {
	if tr == nil {
		return nil
	}
	r := &request{tr: tr, start: start}
	r.spans = append(r.spans, span{parent: -1, name: "request"})
	r.add("loadgen.lag", 0, time.Since(start))
	return r
}

// call runs f inside a span named name under parent (0 is the root) and
// returns the span's id.
func (r *request) call(name string, parent int, f func()) int {
	if r == nil {
		f()
		return -1
	}
	start := time.Now()
	f()
	return r.add(name, parent, time.Since(start))
}

// derived records a sub-interval of parent that the layer reported rather
// than the benchmark timed.
func (r *request) derived(name string, parent int, dur time.Duration) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, dur)
}

func (r *request) add(name string, parent int, dur time.Duration) int {
	r.spans = append(r.spans, span{parent: parent, name: name, durMS: ms(dur)})
	return len(r.spans) - 1
}

// end closes the root span now and hands the request to the tracer.
func (r *request) end() {
	if r == nil {
		return
	}
	r.spans[0].durMS = ms(time.Since(r.start))
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	for i := range r.spans {
		r.spans[i].req = r.tr.reqs
	}
	r.tr.reqs++
	r.tr.spans = append(r.tr.spans, r.spans...)
}

// layerTimes holds one value per span (its self time or its duration), by
// span name, in ms.
type layerTimes map[string][]float64

// mean returns the mean per call of one layer (0 if never called).
func (lt layerTimes) mean(name string) float64 { return mean(lt[name]) }

// accounting computes self times and checks, for every request, that the
// layers' self times sum to the root's wall time within eps: the root's
// own self time (benchmark time no layer accounts for) must stay within eps,
// and no span's children may outlast it.
type accounting struct {
	self          layerTimes
	total         layerTimes
	requests      int
	violations    int
	unattribMaxMS float64
	firstErr      string
}

func (tr *tracer) account() accounting {
	acc := accounting{self: layerTimes{}, total: layerTimes{}}
	if tr == nil {
		return acc
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for lo := 0; lo < len(tr.spans); {
		hi := lo + 1
		for hi < len(tr.spans) && tr.spans[hi].req == tr.spans[lo].req {
			hi++
		}
		acc.check(tr.spans[lo:hi])
		lo = hi
	}
	return acc
}

func (acc *accounting) check(req []span) {
	acc.requests++
	child := make([]float64, len(req))
	for _, s := range req[1:] {
		child[s.parent] += s.durMS
	}
	absMS := epsAbs.Seconds() * 1e3
	bad := ""
	for i, s := range req {
		self := s.durMS - child[i]
		if self < -absMS {
			bad = fmt.Sprintf("span %s: children last %.3f ms longer than the span", s.name, -self)
		}
		if i == 0 {
			acc.unattribMaxMS = math.Max(acc.unattribMaxMS, self)
			if eps := math.Max(absMS, epsRel*s.durMS); self > eps {
				bad = fmt.Sprintf("request of %.3f ms: %.3f ms unattributed, eps %.3f ms", s.durMS, self, eps)
			}
			continue
		}
		acc.self[s.name] = append(acc.self[s.name], self)
		acc.total[s.name] = append(acc.total[s.name], s.durMS)
	}
	if bad != "" {
		acc.violations++
		if acc.firstErr == "" {
			acc.firstErr = bad
		}
	}
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

package serve

import (
	"container/list"
	"context"
	"sync"
)

// claimRole is what keyed.claim decided for a caller.
type claimRole int

const (
	// claimHit found a settled value: the entry's val is ready to use.
	claimHit claimRole = iota
	// claimWait found another caller producing the key: wait on the entry,
	// then read its outcome.
	claimWait
	// claimLead registered the caller as the key's producer: it must
	// settle the entry exactly once, success or failure.
	claimLead
)

// settledCh is the pre-closed done channel of entries stored by put, which
// never had waiters.
var settledCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// keyedEntry is one key's value: in flight (done open, a leader producing)
// or settled (done closed). val and err are written exactly once, before
// done closes, so waiters read them without the lock.
type keyedEntry[K comparable, V any] struct {
	key  K
	val  V
	err  error
	cost int64
	done chan struct{}
}

// wait blocks until the entry settles (nil) or ctx ends (ctx's error). A
// settled entry returns nil even under an ended ctx, so a hit is never
// turned into a cancellation.
func (e *keyedEntry[K, V]) wait(ctx context.Context) error {
	select {
	case <-e.done:
		return nil
	default:
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// keyed is the serving layer's one keyed-state primitive: a cost-bounded
// LRU of settled values plus a registry of in-flight productions, both
// under one mutex. claim elects one producer per key and coalesces
// concurrent callers behind it; settle publishes the outcome. A failed
// production leaves no entry, so the next claim elects a fresh leader —
// what a waiter does about the failure it observed (retry, propagate) is
// the caller's policy. In-flight entries are never evicted and never count
// against the budget: a leader must always be able to settle.
type keyed[K comparable, V any] struct {
	mu       sync.Mutex
	budget   int64         // bound on the settled entries' summed cost; <= 0 is unbounded
	costOf   func(V) int64 // nil charges 1 per entry
	used     int64         // summed cost of settled entries
	ll       *list.List    // settled, front = most recent; elements hold *keyedEntry
	items    map[K]*list.Element
	inflight map[K]*keyedEntry[K, V]
}

func newKeyed[K comparable, V any](budget int64, costOf func(V) int64) *keyed[K, V] {
	return &keyed[K, V]{
		budget:   budget,
		costOf:   costOf,
		ll:       list.New(),
		items:    map[K]*list.Element{},
		inflight: map[K]*keyedEntry[K, V]{},
	}
}

func (k *keyed[K, V]) cost(v V) int64 {
	if k.costOf == nil {
		return 1
	}
	return k.costOf(v)
}

// claim resolves key into a role: a settled hit (refreshed to most
// recent), an in-flight entry to wait on, or a fresh in-flight entry the
// caller now leads.
func (k *keyed[K, V]) claim(key K) (*keyedEntry[K, V], claimRole) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if el, ok := k.items[key]; ok {
		k.ll.MoveToFront(el)
		return el.Value.(*keyedEntry[K, V]), claimHit
	}
	if e, ok := k.inflight[key]; ok {
		return e, claimWait
	}
	e := &keyedEntry[K, V]{key: key, done: make(chan struct{})}
	k.inflight[key] = e
	return e, claimLead
}

// settle records a leader's outcome and releases every waiter. A success
// enters the LRU (unless it alone exceeds the budget); a failure leaves no
// entry behind.
func (k *keyed[K, V]) settle(e *keyedEntry[K, V], v V, err error) {
	var cost int64
	if err == nil {
		cost = k.cost(v)
	}
	e.val, e.err, e.cost = v, err, cost
	k.mu.Lock()
	delete(k.inflight, e.key)
	if err == nil {
		k.store(e)
	}
	k.mu.Unlock()
	close(e.done)
}

// get returns a settled value, refreshing it to most recent.
func (k *keyed[K, V]) get(key K) (V, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if el, ok := k.items[key]; ok {
		k.ll.MoveToFront(el)
		return el.Value.(*keyedEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores a settled value without a production, replacing any settled
// value under key (and its cost). A value that alone exceeds the budget is
// not cacheable and is dropped.
func (k *keyed[K, V]) put(key K, v V) {
	e := &keyedEntry[K, V]{key: key, val: v, cost: k.cost(v), done: settledCh}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.store(e)
}

// store makes e the most recent settled entry for its key, then evicts
// from the cold end until the budget holds; an entry that alone exceeds
// the budget is not stored. Callers hold mu.
func (k *keyed[K, V]) store(e *keyedEntry[K, V]) {
	if k.budget > 0 && e.cost > k.budget {
		return
	}
	if el, ok := k.items[e.key]; ok {
		k.used -= el.Value.(*keyedEntry[K, V]).cost
		el.Value = e
		k.ll.MoveToFront(el)
	} else {
		k.items[e.key] = k.ll.PushFront(e)
	}
	k.used += e.cost
	for k.budget > 0 && k.used > k.budget {
		k.remove(k.ll.Back())
	}
}

func (k *keyed[K, V]) remove(el *list.Element) {
	e := k.ll.Remove(el).(*keyedEntry[K, V])
	delete(k.items, e.key)
	k.used -= e.cost
}

// removeIf evicts every settled entry whose key matches; in-flight
// productions are untouched. match runs under the lock, so it must be a
// pure test of the key.
func (k *keyed[K, V]) removeIf(match func(K) bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for el := k.ll.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*keyedEntry[K, V]).key) {
			k.remove(el)
		}
		el = next
	}
}

// usage reports the settled entries and their summed cost.
func (k *keyed[K, V]) usage() (entries int, cost int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ll.Len(), k.used
}

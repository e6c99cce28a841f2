package serve

import (
	"context"
	"errors"
	"testing"

	"remac/internal/matrix"
)

// TestKeyedSparsitySigMemo: the plan-key sparsity memo holds at most
// metaSigCap matrices, and one that was used recently survives a stream of
// never-repeating matrices that evicts everything colder than it.
func TestKeyedSparsitySigMemo(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	fresh := func() *matrix.Matrix { return matrix.NewDense(1, 1) }

	stream := make([]*matrix.Matrix, metaSigCap)
	for i := range stream {
		stream[i] = fresh()
		s.sparsitySig(stream[i])
	}
	hot := stream[0]
	s.sparsitySig(hot) // refresh the oldest entry
	for i := 0; i < metaSigCap-1; i++ {
		s.sparsitySig(fresh())
	}
	if n, _ := s.metaSigs.usage(); n != metaSigCap {
		t.Fatalf("memo holds %d entries, want the cap %d", n, metaSigCap)
	}
	if _, ok := s.metaSigs.get(hot); !ok {
		t.Error("recently used matrix was evicted by a stream of new ones")
	}
	if _, ok := s.metaSigs.get(stream[1]); ok {
		t.Error("coldest matrix survived past the cap")
	}
}

// TestKeyed covers the primitive's behaviour that the plan cache,
// intermediate cache, idempotency window and MQO tests do not reach.
func TestKeyed(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"settled wait ignores an ended context", func(t *testing.T) {
			k := newKeyed[string, int](0, nil)
			k.put("a", 1)
			e, role := k.claim("a")
			if role != claimHit || e.wait(canceled) != nil || e.val != 1 {
				t.Errorf("role=%v val=%d, want a hit on 1 that waits without error", role, e.val)
			}
		}},
		{"unsettled wait returns the context error", func(t *testing.T) {
			k := newKeyed[string, int](0, nil)
			k.claim("a")
			e, role := k.claim("a")
			if role != claimWait {
				t.Fatalf("second claim: role=%v, want wait", role)
			}
			if err := e.wait(canceled); !errors.Is(err, context.Canceled) {
				t.Errorf("wait = %v, want context.Canceled", err)
			}
		}},
		{"unbounded budget never evicts", func(t *testing.T) {
			k := newKeyed[int, int](0, nil)
			for i := 0; i < 1000; i++ {
				k.put(i, i)
			}
			if n, cost := k.usage(); n != 1000 || cost != 1000 {
				t.Errorf("usage = %d/%d, want 1000/1000", n, cost)
			}
		}},
		{"removeIf leaves in-flight claims to settle", func(t *testing.T) {
			k := newKeyed[string, int](0, nil)
			k.put("old", 1)
			e, _ := k.claim("new")
			k.removeIf(func(string) bool { return true })
			if n, _ := k.usage(); n != 0 {
				t.Fatalf("removeIf left %d settled entries", n)
			}
			k.settle(e, 2, nil)
			if v, ok := k.get("new"); !ok || v != 2 {
				t.Errorf("claim in flight across removeIf settled to %d/%v, want 2/true", v, ok)
			}
		}},
		{"oversize production wakes waiters but is not stored", func(t *testing.T) {
			k := newKeyed[string, int](10, func(v int) int64 { return int64(v) })
			lead, _ := k.claim("big")
			waiter, _ := k.claim("big")
			k.settle(lead, 11, nil)
			if waiter.wait(context.Background()) != nil || waiter.err != nil || waiter.val != 11 {
				t.Errorf("waiter saw %d/%v, want the leader's 11", waiter.val, waiter.err)
			}
			if _, role := k.claim("big"); role != claimLead {
				t.Errorf("after an oversize settle: role=%v, want a fresh lead", role)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

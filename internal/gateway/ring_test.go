package gateway

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"remac/internal/fault"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// TestSplitMix64Golden pins the one SplitMix64 finalizer and every stream
// built on it to fixed outputs: ring placement, seeded random routing,
// the wire-fault roll stream and fault sub-stream seeds. Fleet routing
// under churn depends on these exact values, so any change to the mixer
// or its call sites must show up here.
func TestSplitMix64Golden(t *testing.T) {
	for x, want := range map[uint64]uint64{
		0:                  0,
		1:                  0x5692161d100b05e5,
		0x9e3779b97f4a7c15: 0xe220a8397b1dcdaf,
		^uint64(0):         0xb4d055fcf2cbbd7b,
	} {
		if got := resilience.Mix64(x); got != want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", x, got, want)
		}
	}
	for key, want := range map[string]uint64{
		"":           0xae253598b337821e,
		"cri1@0":     0xb079c56bb23251fc,
		"zipf-1.2@3": 0x1626c91c82d1c7d7,
	} {
		if got := hashKey(7, key); got != want {
			t.Errorf("hashKey(7, %q) = %#x, want %#x", key, got, want)
		}
	}
	r := newRing(4, 64, 1)
	for key, want := range map[string][]int{
		"cri1@0":     {1, 0, 2, 3},
		"cri2@0":     {1, 0, 2, 3},
		"red1@2":     {3, 1, 2, 0},
		"zipf-0.4@0": {2, 1, 0, 3},
	} {
		if got := r.order(key); !reflect.DeepEqual(got, want) {
			t.Errorf("ring order(%q) = %v, want %v", key, got, want)
		}
	}
	g := &Gateway{cfg: Config{Seed: 42, RouteRandom: true}, ids: make([]string, 5)}
	for i, want := range []int{3, 1, 3, 4, 0, 2} {
		if got := g.order(serve.Query{})[0]; got != want {
			t.Errorf("random route %d: home %d, want %d", i, got, want)
		}
	}
	nf := NewNetFault(nil, NetFaultConfig{Seed: 9})
	for i, want := range []float64{0.6823627349789958, 0.7506948929582787, 0.2653224405991833} {
		if got := nf.next(); got != want {
			t.Errorf("netfault roll %d = %v, want %v", i, got, want)
		}
	}
	for index, want := range map[int]int64{0: 1635312068028924514, 1: -4569129087685675272, 1000: -4743792191840799431} {
		if got := fault.DeriveSeed(5, index); got != want {
			t.Errorf("DeriveSeed(5, %d) = %d, want %d", index, got, want)
		}
	}
}

// TestRingOrderDeterministicAndComplete: a preference order is a
// permutation of all shards, identical across rings built with the same
// parameters (placement must be stable across processes).
func TestRingOrderDeterministicAndComplete(t *testing.T) {
	const shards, vnodes = 4, 64
	a := newRing(shards, vnodes, 42)
	b := newRing(shards, vnodes, 42)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("dataset-%d@0", i)
		oa, ob := a.order(key), b.order(key)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %q: order differs across identical rings: %v vs %v", key, oa, ob)
		}
		if len(oa) != shards {
			t.Fatalf("key %q: order has %d entries, want %d", key, len(oa), shards)
		}
		seen := map[int]bool{}
		for _, s := range oa {
			if s < 0 || s >= shards || seen[s] {
				t.Fatalf("key %q: order %v is not a permutation of shards", key, oa)
			}
			seen[s] = true
		}
	}
}

// TestRingSpreadsKeys: with virtual nodes, a modest key population
// touches every shard (no shard is starved of ownership).
func TestRingSpreadsKeys(t *testing.T) {
	const shards = 4
	r := newRing(shards, 64, 7)
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		counts[r.order(fmt.Sprintf("key-%d", i))[0]]++
	}
	for s := 0; s < shards; s++ {
		if counts[s] == 0 {
			t.Fatalf("shard %d owns no keys out of 200: %v", s, counts)
		}
	}
}

// TestRingSeedChangesPlacement: different seeds re-roll placement for at
// least some keys (seeded placement is a real knob, not decorative).
func TestRingSeedChangesPlacement(t *testing.T) {
	a := newRing(4, 64, 1)
	b := newRing(4, 64, 2)
	moved := 0
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.order(key)[0] != b.order(key)[0] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the seed moved no keys at all")
	}
}

// TestRingVersionMovesKey: bumping the version in a dataset@version key
// may re-home the dataset — and whatever the new home is, it is stable.
func TestRingVersionStableWithinVersion(t *testing.T) {
	r := newRing(4, 64, 3)
	for v := 0; v < 5; v++ {
		key := fmt.Sprintf("cri1@%d", v)
		first := r.order(key)[0]
		for i := 0; i < 10; i++ {
			if got := r.order(key)[0]; got != first {
				t.Fatalf("key %q: home flapped %d -> %d", key, first, got)
			}
		}
	}
}

// ejectByProbes drives a gateway's shard to ejected via failed probes.
func ejectByProbes(t *testing.T, g *Gateway, fakes []*fakeShard, victim int) {
	t.Helper()
	fakes[victim].setDown(true)
	for i := 0; i < 3 && g.ShardState(victim) != ShardEjected; i++ {
		g.ProbeNow()
	}
	if got := g.ShardState(victim); got != ShardEjected {
		t.Fatalf("victim %d state %v after probe budget, want ejected", victim, got)
	}
}

// TestEjectionRedistributionDeterministic: ejecting a shard moves only
// that shard's keys — each to the next shard in its own preference order
// — while every surviving shard's keys keep their placement; two gateways
// with identical config and ejection history route identically; and
// rejoin restores the original placement exactly.
func TestEjectionRedistributionDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, EjectAfter: 1, RejoinProbes: 1, PassiveFailures: -1}
	build := func() (*Gateway, []*fakeShard) {
		insts, fakes := fakeFleet(4)
		return NewWithInstances(cfg, insts), fakes
	}
	g1, f1 := build()
	defer g1.Shutdown(context.Background())
	g2, f2 := build()
	defer g2.Shutdown(context.Background())

	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("ds-%d", i)
	}
	baseHome := map[string]int{}
	baseOrder := map[string][]int{}
	for _, key := range keys {
		order := g1.routableOrder(gatewayQuery(key))
		baseHome[key] = order[0]
		baseOrder[key] = order
	}

	victim := 2
	ejectByProbes(t, g1, f1, victim)
	ejectByProbes(t, g2, f2, victim)

	moved := 0
	for _, key := range keys {
		o1 := g1.routableOrder(gatewayQuery(key))
		o2 := g2.routableOrder(gatewayQuery(key))
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("key %q: identical gateways diverged after identical ejection history: %v vs %v", key, o1, o2)
		}
		if baseHome[key] != victim {
			// Surviving-shard keys never move.
			if o1[0] != baseHome[key] {
				t.Fatalf("key %q homed on surviving shard %d moved to %d", key, baseHome[key], o1[0])
			}
			continue
		}
		// The ejected shard's keys move to the next preference — nothing
		// random, nothing rebalanced wholesale.
		moved++
		if want := baseOrder[key][1]; o1[0] != want {
			t.Fatalf("key %q: ejected home %d should hand off to next preference %d, got %d", key, victim, want, o1[0])
		}
	}
	if moved == 0 {
		t.Fatal("no key homed on the victim; test covers nothing")
	}

	// Rejoin restores the original placement bit for bit.
	for _, pair := range []struct {
		g *Gateway
		f []*fakeShard
	}{{g1, f1}, {g2, f2}} {
		pair.f[victim].setDown(false)
		for i := 0; i < 3 && pair.g.ShardState(victim) != ShardHealthy; i++ {
			pair.g.ProbeNow()
		}
		if got := pair.g.ShardState(victim); got != ShardHealthy {
			t.Fatalf("victim state %v after rejoin probes, want healthy", got)
		}
	}
	for _, key := range keys {
		if got := g1.routableOrder(gatewayQuery(key)); !reflect.DeepEqual(got, baseOrder[key]) {
			t.Fatalf("key %q: rejoin did not restore original order %v, got %v", key, baseOrder[key], got)
		}
	}
}

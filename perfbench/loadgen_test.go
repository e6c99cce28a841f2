package main

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestScheduleSameSeedSameSchedule(t *testing.T) {
	a := Schedule(42, 8, 96)
	b := Schedule(42, 8, 96)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, Schedule(43, 8, 96)) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) != 96 {
		t.Fatalf("got %d arrivals, want 96", len(a))
	}
	span := 96 / 8 * time.Second
	for i, off := range a {
		if off < 0 || off > span || (i > 0 && off < a[i-1]) {
			t.Fatalf("offset %d = %v: not sorted within [0, %v]", i, off, span)
		}
	}
	n := arrivals(8, 12, 4)
	if n != 96 {
		t.Fatalf("arrivals(8 qps, 12 s, 4 sessions) = %d, want 96", n)
	}
	labels := Labels(7, n, 4)
	if !reflect.DeepEqual(labels, Labels(7, n, 4)) {
		t.Fatal("one seed gave two session orders")
	}
	for w := 0; w < openWindows; w++ {
		counts := map[int]int{}
		for _, s := range labels[w*n/openWindows : (w+1)*n/openWindows] {
			counts[s]++
		}
		if !reflect.DeepEqual(counts, map[int]int{0: 8, 1: 8, 2: 8, 3: 8}) {
			t.Fatalf("window %d session counts %v, want 8 each", w, counts)
		}
	}
}

// A fake single-worker target that stalls on one request: the requests due
// during the stall must show the stall in their latency, measured from
// their due time, even though the generator sent each of them on time.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n     = 20
		gap   = 5 * time.Millisecond
		stall = 150 * time.Millisecond
		stop  = 4
	)
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	var worker sync.Mutex
	lat := make([]time.Duration, n)
	lags := OpenLoop(time.Now(), offsets, func(i int, due time.Time) {
		worker.Lock()
		if i == stop {
			time.Sleep(stall)
		}
		worker.Unlock()
		lat[i] = time.Since(due)
	})
	for i, l := range lags {
		if l > 50*time.Millisecond {
			t.Fatalf("request %d sent %v late: the stalled target held up the generator", i, l)
		}
	}
	if lat[stop] < stall {
		t.Fatalf("stalled request latency %v, want >= %v", lat[stop], stall)
	}
	// Request stop+k was due k gaps after the stall began, so it waited at
	// least the rest of the stall.
	for k := 1; stop+k < n && time.Duration(k)*gap < stall; k++ {
		if want := stall - time.Duration(k)*gap; lat[stop+k] < want {
			t.Fatalf("request %d latency %v, want >= %v (stall not charged)", stop+k, lat[stop+k], want)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/party"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest percentile with ten samples beyond it.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p, v   float64
		beyond int
		ok     bool
	}{
		{n: 1000, p: 99, v: 990, beyond: 10, ok: true},
		{n: 200, p: 95, v: 190, beyond: 10, ok: true},
		{n: 199, p: 100 * 189.0 / 199, v: 189, beyond: 10, ok: true},
		{n: 20, p: 50, v: 10, beyond: 10, ok: true},
		{n: 15, p: 100 * 8.0 / 15, v: 8, beyond: 7, ok: false},
	} {
		p, v, beyond, ok := tail(ramp(c.n))
		if p != c.p || v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: tail = p%g %g (%d beyond, ok %v), want p%g %g (%d beyond, ok %v)",
				c.n, p, v, beyond, ok, c.p, c.v, c.beyond, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}

func sampleResults(sil float64) map[string]*party.Result {
	return map[string]*party.Result{
		"A": {Silhouette: sil, K: 2},
		"B": {Silhouette: sil, K: 2},
	}
}

// A refused or timed-out session is attempted but not completed, and so
// is one whose results differ from the pin; only the good one gives a
// latency sample.
func TestTallyCountsRefusedTimedOutAndWrongSessions(t *testing.T) {
	pin, err := digest(sampleResults(0.5))
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally(pin)
	tl.add(10*time.Millisecond, sampleResults(0.5), 100, nil)
	tl.add(time.Millisecond, nil, 0, &netid.RejectedError{Code: netid.RejectCapacity, Detail: "full"})
	tl.add(time.Minute, nil, 0, fmt.Errorf("admission: %w", context.DeadlineExceeded))
	tl.add(10*time.Millisecond, sampleResults(0.25), 100, nil)
	if tl.attempted != 4 || tl.failed != 3 || tl.wrong != 1 || tl.completed() != 1 {
		t.Fatalf("attempted %d failed %d wrong %d completed %d, want 4/3/1/1",
			tl.attempted, tl.failed, tl.wrong, tl.completed())
	}
	if len(tl.latMs) != 1 || tl.latMs[0] != 10 || tl.wireBytes != 100 {
		t.Fatalf("samples %v wire %d, want only the good session's", tl.latMs, tl.wireBytes)
	}
	if r := errorRate(tl.failed, tl.attempted); r != 0.75 {
		t.Fatalf("error rate %g, want 0.75", r)
	}
}

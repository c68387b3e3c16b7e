package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"ppclust/internal/party"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest percentile of sorted xs that has minBeyond
// samples beyond it — the (minBeyond+1)-th largest sample, at percentile
// rank 100·(n−minBeyond)/n. Choosing the rank from n, rather than from a
// fixed ladder of percentiles, keeps the tail from jumping between
// ladder rungs when the session count crosses a threshold. ok is false
// when fewer than 2·minBeyond samples exist; the median rank is used then.
func tail(sorted []float64) (p, v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, math.NaN(), 0, false
	}
	rank := n - minBeyond // 1-based
	ok = rank >= (n+1)/2
	if !ok {
		rank = (n + 1) / 2
	}
	return 100 * float64(rank) / float64(n), sorted[rank-1], n - rank, ok
}

// median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tally counts the sessions of one timed window. Every session handed to
// add is attempted; it completes only when it returned without error and
// its results match the pinned digest. A refused, timed-out, failed or
// wrong session is failed and contributes no latency sample.
type tally struct {
	pin string

	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	latMs     []float64
	doneAt    []time.Time // completion times of the completed sessions
	wireBytes uint64
	firstErr  error
}

func newTally(pin string) *tally { return &tally{pin: pin} }

// add records one session. results and err are what the session returned;
// wire is the bytes it put on every lane.
func (t *tally) add(lat time.Duration, results map[string]*party.Result, wire uint64, err error) {
	wrong := false
	if err == nil {
		d, derr := digest(results)
		if derr != nil {
			err = derr
		} else if d != t.pin {
			wrong = true
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	case wrong:
		t.failed++
		t.wrong++
	default:
		t.latMs = append(t.latMs, float64(lat.Nanoseconds())/1e6)
		t.doneAt = append(t.doneAt, time.Now())
		t.wireBytes += wire
	}
}

// completed is the number of sessions that passed the gate.
func (t *tally) completed() int { return t.attempted - t.failed }

// errorRate is failed ÷ attempted.
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

package main

import (
	"testing"

	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// smallWorkload is a named workload shrunk so a test session is quick.
func smallWorkload(t *testing.T, name string, rows int) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.rows = rows
	return &small
}

// One session cut by a wire fault and one altered result both count as
// failed; neither is dropped from attempted.
func TestGateCountsCutAndAlteredSessions(t *testing.T) {
	r, err := newRig(smallWorkload(t, "bulk-wan", 40), 7, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	pin, _, err := gate(r)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally(pin)

	good, err := r.session(false)
	tl.add(0, resultsOf(good), 0, err)

	altered := map[string]*party.Result{}
	for h, res := range good.results {
		c := *res
		altered[h] = &c
	}
	altered["A"].Silhouette += 1e-12
	tl.add(0, altered, 0, nil)

	r.inject = func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner == "B" && peer == party.TPName {
			return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 3})
		}
		return c
	}
	cut, err := r.session(false)
	if err == nil {
		t.Fatal("session over a cut link succeeded")
	}
	tl.add(0, resultsOf(cut), 0, err)

	if tl.attempted != 3 || tl.failed != 2 || tl.wrong != 1 || tl.completed() != 1 {
		t.Fatalf("attempted %d failed %d wrong %d completed %d, want 3/2/1/1",
			tl.attempted, tl.failed, tl.wrong, tl.completed())
	}
}

// Every workload passes its own gate at a small size: the set-up session
// matches the centralized matrices and a second session reproduces the
// pinned digest.
func TestWorkloadsPassTheGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := newRig(smallWorkload(t, w.name, 12), 3, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			pin, _, err := gate(r)
			if err != nil {
				t.Fatal(err)
			}
			tl := newTally(pin)
			out, err := r.session(false)
			tl.add(0, resultsOf(out), 0, err)
			if tl.failed != 0 {
				t.Fatalf("second session failed the gate: %v", tl.firstErr)
			}
		})
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one session
// share Session; Parent names the span that caused this one (0 for a
// root). Bytes is the frame size for wire spans.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
	Lane    string `json:"lane,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil or disabled
// recorder records nothing, so the untraced run pays one branch per call.
type recorder struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// id reserves a span ID, so a parent can be named before it ends.
func (r *recorder) id() int64 { return r.ids.Add(1) }

// add records a finished span without wire attributes.
func (r *recorder) add(id, parent, session int64, name string, start, end time.Time) {
	r.push(span{ID: id, Parent: parent, Session: session, Name: name}, start, end)
}

// push stamps s with start and end and records it.
func (r *recorder) push(s span, start, end time.Time) {
	if !r.enabled() {
		return
	}
	s.Start, s.End = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as a span named name under parent.
func (r *recorder) timed(parent, session int64, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.add(r.id(), parent, session, name, start, time.Now())
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// Wire span names. The side is the party that owns the conduit end: the
// third party (or one of its shards), a holder, or the coordinator's end
// of a shard worker link.
const (
	spanTPSend     = "wire.tp.send"
	spanTPRecv     = "wire.tp.recv"
	spanHolderSend = "wire.holder.send"
	spanHolderRecv = "wire.holder.recv"
	spanRelaySend  = "party.relay.send"
	spanRelayRecv  = "party.relay.recv"
)

// tracedConduit records one span per Send and Recv. It sits below the
// parties' channel protection, so Bytes are the sizes on the wire.
// Lane names the directed link the end sends on ("B->TP#1").
type tracedConduit struct {
	inner              wire.Conduit
	rec                *recorder
	session            int64
	sendName, recvName string
	lane               string
}

func (t *tracedConduit) Send(frame []byte) error {
	start := time.Now()
	err := t.inner.Send(frame)
	t.rec.push(span{ID: t.rec.id(), Parent: t.session, Session: t.session, Name: t.sendName,
		Bytes: len(frame), Lane: t.lane}, start, time.Now())
	return err
}

func (t *tracedConduit) Recv() ([]byte, error) {
	start := time.Now()
	f, err := t.inner.Recv()
	t.rec.push(span{ID: t.rec.id(), Parent: t.session, Session: t.session, Name: t.recvName,
		Bytes: len(f), Lane: t.lane}, start, time.Now())
	return f, err
}

func (t *tracedConduit) Close() error { return t.inner.Close() }

package main

import (
	"fmt"
	"strings"
	"time"

	"ppclust/internal/costmodel"
	"ppclust/internal/dataset"
	"ppclust/internal/party"
)

// replayRuns is how many times the per-layer replay repeats; each layer
// reports its median.
const replayRuns = 5

// predictedElems is the paper's closed-form element count (Sections
// 4.1–4.3) for one session of the workload: every holder's local matrix
// and, per pair, the initiator's and the responder's protocol payloads.
func predictedElems(w *workload) int64 {
	n := w.rows
	h := len(w.holders)
	npairs := int64(h * (h - 1) / 2)
	var total int64
	for _, a := range w.schema.Attrs {
		switch a.Type {
		case dataset.Numeric:
			local, initProto := costmodel.NumericInitiatorElems(n, n, false)
			_, respProto := costmodel.NumericResponderElems(n, n)
			total += int64(h)*local + npairs*(initProto+respProto)
		case dataset.Alphanumeric:
			local, initProto := costmodel.AlphaInitiatorElems(n, dnaLength)
			_, respProto := costmodel.AlphaResponderElems(n, dnaLength, n, dnaLength)
			total += int64(h)*local + npairs*(initProto+respProto)
		case dataset.Categorical:
			total += int64(h) * costmodel.CategoricalElems(n)
		}
	}
	return total
}

// sessionWire is what the spans of one traced session show.
type sessionWire struct {
	frames      int
	tpWait      time.Duration
	holderWait  time.Duration
	holderBytes int
	laneBytes   map[string]int
	relayBytes  int
	relaySend   time.Duration
	sliceWait   time.Duration
	admitWait   []time.Duration
	frameSizes  []int
	relaySends  map[string][]span
	slices      map[string]span
}

func wireBySession(spans []span) map[int64]*sessionWire {
	out := map[int64]*sessionWire{}
	for _, s := range spans {
		if s.Name == "session" {
			continue
		}
		sw := out[s.Session]
		if sw == nil {
			sw = &sessionWire{laneBytes: map[string]int{}, relaySends: map[string][]span{}, slices: map[string]span{}}
			out[s.Session] = sw
		}
		switch s.Name {
		case spanTPSend, spanHolderSend, spanRelaySend:
			sw.frames++
			sw.frameSizes = append(sw.frameSizes, s.Bytes)
			if strings.Contains(s.Lane, party.TPName) && s.Name != spanRelaySend {
				sw.laneBytes[s.Lane] += s.Bytes
			}
		}
		switch s.Name {
		case spanTPRecv:
			sw.tpWait += s.dur()
		case spanHolderRecv:
			sw.holderWait += s.dur()
		case spanHolderSend:
			sw.holderBytes += s.Bytes
		case spanRelaySend:
			sw.relayBytes += s.Bytes
			sw.relaySend += s.dur()
			sw.relaySends[s.Lane] = append(sw.relaySends[s.Lane], s)
		case spanRelayRecv:
			// The largest frame a worker returns is its slice.
			if s.Bytes > sw.slices[s.Lane].Bytes {
				sw.slices[s.Lane] = s
			}
		case "server.admit":
			sw.admitWait = append(sw.admitWait, s.dur())
		}
	}
	// A worker's slice wait runs from the last frame relayed to it before
	// its slice arrived to the slice's arrival.
	for _, sw := range out {
		for lane, slice := range sw.slices {
			var lastTx int64
			for _, tx := range sw.relaySends[lane] {
				if tx.End <= slice.End {
					lastTx = max(lastTx, tx.End)
				}
			}
			if lastTx > 0 {
				sw.sliceWait = max(sw.sliceWait, time.Duration(slice.End-lastTx))
			}
		}
	}
	return out
}

// moves names, for each per-layer metric, the end-to-end metric it should
// move and on which workload.
var moves = map[string]string{
	"wire.frames":              "wire_mb_per_session everywhere",
	"wire.tp_recv_wait_ms":     "session_p50_ms on bulk-wan",
	"wire.holder_recv_wait_ms": "session_p50_ms on bulk-wan",
	"wire.link_floor_ms":       "session_p50_ms on bulk-wan",
	"wire.bytes_per_elem":      "wire_mb_per_session everywhere",
	"wire.codec_ms":            "cpu_ms_per_session on tenants-mixed, session_p50_ms on bulk-wan",
	"wire.codec_allocs":        "alloc_mb_per_session on tenants-mixed",
	"wire.seal_ms":             "cpu_ms_per_session on shard-relay",
	"rng.keystream_ms":         "sessions_per_s on tenants-mixed; not bulk-wan",
	"protocol.numeric_ms":      "sessions_per_s on tenants-mixed; not bulk-wan",
	"protocol.alpha_ms":        "sessions_per_s on tenants-mixed",
	"protocol.cat_ms":          "sessions_per_s on tenants-mixed",
	"keys.handshake_ms":        "session_tail_ms, sessions_per_s on tenants-mixed",
	"server.admit_wait_ms":     "session_tail_ms, sessions_per_s on tenants-mixed",
	"dissim.local_ms":          "session_p50_ms on bulk-wan and shard-relay",
	"dissim.assemble_ms":       "session_p50_ms on bulk-wan and shard-relay",
	"dissim.merge_ms":          "session_p50_ms on bulk-wan and shard-relay",
	"hcluster.cluster_ms":      "session_p50_ms on bulk-wan, cpu_ms_per_session on tenants-mixed",
	"hcluster.quality_ms":      "session_p50_ms on bulk-wan, cpu_ms_per_session on tenants-mixed",
	"party.relay_mb":           "session_p50_ms, cpu_ms_per_session on shard-relay; not bulk-wan",
	"party.relay_send_ms":      "session_p50_ms, cpu_ms_per_session on shard-relay; not bulk-wan",
	"party.slice_wait_ms":      "session_p50_ms, cpu_ms_per_session on shard-relay; not bulk-wan",
	"party.unattributed_ms":    "session_p50_ms, cpu_ms_per_session on shard-relay; not bulk-wan",
	"trace.overhead_frac":      "none: it bounds the instrumentation",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOver takes the median of f over the traced sessions.
func medianOver(ss []*sessionWire, f func(*sessionWire) float64) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// perLayer turns the traced window's spans and the replays into the
// per-layer metrics. plain is the untraced window run just before.
func perLayer(r *rig, rep *party.TPReport, rec *recorder, plain, traced *window) ([]metric, error) {
	w := r.w
	var sessions []*sessionWire
	for _, sw := range wireBySession(rec.snapshot()) {
		if sw.frames > 0 {
			sessions = append(sessions, sw)
		}
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("traced window recorded no session")
	}
	n := len(sessions)
	elems := predictedElems(w)
	holderBytes := medianOver(sessions, func(s *sessionWire) float64 { return float64(s.holderBytes) })

	// Replays, each under its own root span.
	rp := newReplayer(r, rep, rec, sessions[0].frameSizes)
	layerMs := map[string][]float64{}
	var allocs []float64
	for i := 0; i < replayRuns; i++ {
		root := rec.id()
		start := time.Now()
		codecAllocs, err := rp.run(root)
		rec.add(root, 0, root, "replay", start, time.Now())
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		allocs = append(allocs, float64(codecAllocs))
		spans := rec.snapshot()
		self := selfTimes(spans)
		sums := map[string]time.Duration{}
		for _, s := range spans {
			if s.Parent == root {
				sums[s.Name] += self[s.ID]
			}
		}
		for name, d := range sums {
			layerMs[name] = append(layerMs[name], ms(d))
		}
	}
	layer := func(name string) float64 { return median(layerMs[name]) }
	var attributed float64
	for _, name := range []string{spanHandshake, spanNumeric, spanAlpha, spanCat, spanLocal, spanAssemble,
		spanMerge, spanCluster, spanQuality, spanCodec, spanSeal} {
		attributed += layer(name)
	}
	plainCPU := plain.perSession(ms(plain.cpu))
	hasType := func(t dataset.AttrType) bool {
		for _, a := range w.schema.Attrs {
			if a.Type == t {
				return true
			}
		}
		return false
	}
	relay := w.shards > 1
	replayNote := fmt.Sprintf("median of %d replays", replayRuns)
	busiest := func(s *sessionWire) float64 {
		top := 0
		for _, b := range s.laneBytes {
			top = max(top, b)
		}
		return float64(top)
	}
	return []metric{
		{name: "wire.frames", value: medianOver(sessions, func(s *sessionWire) float64 { return float64(s.frames) }), unit: "count", n: n, note: "frames per session, all lanes"},
		{name: "wire.tp_recv_wait_ms", value: medianOver(sessions, func(s *sessionWire) float64 { return ms(s.tpWait) }), unit: "ms", n: n, note: "summed over TP-side ends"},
		{name: "wire.holder_recv_wait_ms", value: medianOver(sessions, func(s *sessionWire) float64 { return ms(s.holderWait) }), unit: "ms", n: n, note: "summed over holder ends"},
		{name: "wire.link_floor_ms", value: medianOver(sessions, busiest) / linkRate * 1e3, unit: "ms", n: n,
			note: fmt.Sprintf("busiest TP lane %.0f B at %d MB/s", medianOver(sessions, busiest), linkRate>>20)},
		{name: "wire.bytes_per_elem", value: holderBytes / float64(elems), unit: "B", n: n,
			note: fmt.Sprintf("%.0f B sent by holders vs %d elements predicted by costmodel (Sections 4.1-4.3)", holderBytes, elems)},
		{name: "wire.codec_ms", value: layer(spanCodec), unit: "ms", n: replayRuns, note: replayNote},
		{name: "wire.codec_allocs", value: median(allocs), unit: "count", n: replayRuns, note: replayNote},
		{name: "wire.seal_ms", value: layer(spanSeal), unit: "ms", n: replayRuns, note: fmt.Sprintf("%d traced frames, %s", len(rp.frames), replayNote)},
		{name: "rng.keystream_ms", value: layer(spanKeystream), unit: "ms", n: replayRuns, note: "words drawn by the protocol replay; inside protocol.*"},
		{name: "protocol.numeric_ms", value: layer(spanNumeric), unit: "ms", n: replayRuns, note: replayNote},
		{name: "protocol.alpha_ms", value: layer(spanAlpha), unit: "ms", n: replayRuns, na: !hasType(dataset.Alphanumeric), note: replayNote},
		{name: "protocol.cat_ms", value: layer(spanCat), unit: "ms", n: replayRuns, na: !hasType(dataset.Categorical), note: replayNote},
		{name: "keys.handshake_ms", value: layer(spanHandshake), unit: "ms", n: replayRuns, note: replayNote},
		{name: "server.admit_wait_ms", value: admitMedian(sessions), unit: "ms", n: n, na: !w.tenants, note: "Submit to Accept, per holder"},
		{name: "dissim.local_ms", value: layer(spanLocal), unit: "ms", n: replayRuns, note: replayNote},
		{name: "dissim.assemble_ms", value: layer(spanAssemble), unit: "ms", n: replayRuns, note: replayNote},
		{name: "dissim.merge_ms", value: layer(spanMerge), unit: "ms", n: replayRuns, note: replayNote},
		{name: "hcluster.cluster_ms", value: layer(spanCluster), unit: "ms", n: replayRuns, note: replayNote},
		{name: "hcluster.quality_ms", value: layer(spanQuality), unit: "ms", n: replayRuns, note: replayNote},
		{name: "party.relay_mb", value: medianOver(sessions, func(s *sessionWire) float64 { return float64(s.relayBytes) / 1e6 }), unit: "MB", n: n, na: !relay},
		{name: "party.relay_send_ms", value: medianOver(sessions, func(s *sessionWire) float64 { return ms(s.relaySend) }), unit: "ms", n: n, na: !relay},
		{name: "party.slice_wait_ms", value: medianOver(sessions, func(s *sessionWire) float64 { return ms(s.sliceWait) }), unit: "ms", n: n, na: !relay,
			note: "last relayed frame to slice arrival, slowest worker"},
		{name: "party.unattributed_ms", value: plainCPU - attributed, unit: "ms", n: plain.t.completed(),
			note: fmt.Sprintf("untraced CPU %.1f ms per session minus %.1f ms of replayed layers", plainCPU, attributed)},
		{name: "trace.overhead_frac", value: traced.p50()/plain.p50() - 1, unit: "ratio", n: traced.t.completed(),
			note: fmt.Sprintf("traced p50 %.2f ms vs untraced %.2f ms", traced.p50(), plain.p50())},
	}, nil
}

func admitMedian(ss []*sessionWire) float64 {
	var xs []float64
	for _, s := range ss {
		for _, d := range s.admitWait {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

package party

// The sharded third party splits the TP role into two composable halves:
//
//   - a shard owns a contiguous range of global triangle rows
//     (dissim.ShardRanges over the census total). Holders fan each
//     comparison attribute's local-matrix and S/M chunk frames to the
//     owning shard's conduit; the shard demultiplexes its lanes, evaluates
//     each chunk row-exactly (the protocol engine's *Rows methods, with
//     AdvanceThirdParty* positioning the per-pair keystream for mid-block
//     starts) and assembles exactly its slice with a SliceAssembler;
//   - the coordinator runs everything else: handshake, census, the
//     tag-based attributes, clustering requests and result publication
//     all stay on the per-holder control conduit. When the shards finish,
//     it concatenates their slices into each attribute's condensed matrix
//     (SetPackedRows) and normalizes.
//
// ThirdParty.run drives both halves for every K; the single TP is the
// K=1 case, one shard over the control conduits. Slices come from
// shardCore in-process (this file) or from ppc-shard worker processes
// (shardproc.go, shardserver.go). The split partitions rows, wire lanes
// and resident memory, not trust. Bit-identity across K holds because
// chunk evaluation is sequence-identical (pinned by the protocol row
// tests), slice assembly writes each cell exactly once with the same
// value (pinned by the dissim slice tests), and max is associative.

import (
	"fmt"
	"sync"

	"ppclust/internal/dissim"
	"ppclust/internal/wire"
)

// shardClassifier routes a session's demux traffic: aborts fail the lane,
// clustering requests land past the attribute lanes, everything else
// routes by attribute. The control demuxes, in-process shard demuxes and
// the worker process all use the same routing (shard demuxes have no
// request lane: reqLane −1).
func shardClassifier(nAttr, reqLane int) func(m *wire.Message) (int, error) {
	return func(m *wire.Message) (int, error) {
		// A peer's abort terminates the whole stream: the classify error
		// becomes the demux's terminal error, every lane closes, and the
		// stages observe the classified reason instead of a routing error.
		if m.Kind == kindAbort {
			return 0, peerAbortError(m)
		}
		if m.Kind == kindRequest && reqLane >= 0 {
			return reqLane, nil
		}
		if m.Attr < 0 || m.Attr >= nAttr {
			return 0, fmt.Errorf("party: message %q for attribute %d outside schema", m.Kind, m.Attr)
		}
		return m.Attr, nil
	}
}

// assembly tracks one session's concurrent assembly goroutines. The first
// failure wins and runs every stop hook — stopping demuxes, closing worker
// links — so siblings parked in a mailbox or on a worker link unwind, even
// those waiting on a holder whose reader is parked in a conduit Recv that
// Stop cannot reach.
type assembly struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
	stops []func()
}

// onFail registers a hook the first failure runs — at once, if the
// failure already happened.
func (a *assembly) onFail(stop func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		stop()
		return
	}
	a.stops = append(a.stops, stop)
}

func (a *assembly) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	a.err = err
	for _, stop := range a.stops {
		stop()
	}
}

// spawn runs fn on a goroutine that wait joins.
func (a *assembly) spawn(fn func()) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		fn()
	}()
}

// wait joins every spawned goroutine and returns the first failure.
func (a *assembly) wait() error {
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

func stopDemuxes(ds []*wire.Demux) {
	for _, d := range ds {
		d.Stop()
	}
}

// startLocalShards runs one in-process shard pipeline per range, each
// over demuxes of its own holder→shard conduits with lane quotas
// restricted to each holder's row intersection with the shard. A holder
// with no rows in a shard sends nothing there: every quota is zero, the
// lanes close immediately and the reader never touches the conduit. On a
// clean run every reader exits once its quota is delivered.
func (tp *ThirdParty) startLocalShards(asm *assembly, core *shardCore, ranges [][2]int, offsets []int, slices [][][]float64) {
	classify := shardClassifier(len(tp.cfg.Schema.Attrs), -1)
	for s, r := range ranges {
		demux := make([]*wire.Demux, len(tp.holders))
		for hi, h := range tp.holders {
			demux[hi] = wire.NewDemux(wire.NewEndpoint(tp.shardConduits[s][h]),
				core.laneQuotas(offsets, hi, r), laneBuffer, classify)
		}
		asm.onFail(func() { stopDemuxes(demux) })
		asm.spawn(func() { core.runShard(s, r, demux, slices[s], nil, asm.fail) })
	}
}

// mergeShardSlices builds each comparison attribute's condensed matrix
// from its shard slices and normalizes. A single range covers the whole
// triangle, so the matrix adopts that slice's storage; several ranges are
// concatenated with SetPackedRows. Either way the maximum is recomputed
// over the installed cells, and max is associative — so the scale, and
// with element-wise division every cell, is bit-identical for every K.
func (tp *ThirdParty) mergeShardSlices(total int, ranges [][2]int, slices [][][]float64, matrices []*dissim.Matrix, scales []float64) error {
	for attr, a := range tp.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		var m *dissim.Matrix
		if len(ranges) == 1 {
			var err error
			if m, err = dissim.FromPacked(total, slices[0][attr]); err != nil {
				return fmt.Errorf("party: merging attribute %q: %w", a.Name, err)
			}
		} else {
			m = dissim.New(total)
			for s, r := range ranges {
				if err := m.SetPackedRows(r[0], r[1], slices[s][attr]); err != nil {
					return fmt.Errorf("party: merging attribute %q slice of shard %d: %w", a.Name, s, err)
				}
			}
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
	}
	return nil
}

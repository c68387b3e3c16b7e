package party

// shardCore is one TP shard's stage pipeline, detached from the ThirdParty
// session object so the same code produces every slice:
//
//   - in-process: the third party builds a core from its own session
//     state and runs one per range under its guard — K shard goroutines
//     over the shard conduits, or at K=1 the single TP's whole triangle
//     over the control conduits;
//   - cross-process: a ppc-shard worker builds a core from the
//     coordinator's slice offer (census, range, per-pair mask seeds) and
//     runs exactly one, fed by relayed holder frames.
//
// The core holds only what the shard math needs — the session agreement,
// the census, the compute budget and the per-(attribute, pair) mask-stream
// seeds — and never the channel masters, which stay on the coordinator.
// Because the demux lane quotas, the chunk schedules and the keystream
// positioning are all pure functions of (Config, census, range), a core fed
// the same per-holder frame bytes produces bit-identical slices wherever it
// runs; that is the whole cross-process bit-identity argument.

import (
	"fmt"
	"math"
	"sync"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

type shardCore struct {
	cfg     Config
	holders []string
	counts  []int
	workers int
	engines *protocol.EnginePool
	// seed yields the shared mask-stream seed of (attr, pair (j, k)) — the
	// coordinator derives it from the key agreement (ThirdParty.seedJT), a
	// worker looks it up in the slice offer.
	seed func(attr int, j, k string) rng.Seed
	// whole marks the single TP's core, which reads the control streams:
	// there holders send every schedule unrestricted, so a holder or
	// responder with no rows still sends its one empty chunk, which the
	// core must consume. Shard streams skip empty intersections instead.
	whole bool
}

// core builds the third party's own shard pipeline view — the in-process
// deployment.
func (tp *ThirdParty) core() *shardCore {
	return &shardCore{cfg: tp.cfg, holders: tp.holders, counts: tp.counts,
		workers: tp.workers, engines: tp.engines, seed: tp.seedJT,
		whole: tp.cfg.shardCount() == 1}
}

// censusLayout returns each holder's global row offset and the census
// total, refusing a negative count or a total that overflows int before
// anything is sized from them.
func censusLayout(counts []int) (offsets []int, total int, err error) {
	offsets = make([]int, len(counts))
	for i, c := range counts {
		if c < 0 || c > math.MaxInt-total {
			return nil, 0, fmt.Errorf("party: census count %d of holder %d is negative or overflows the total", c, i)
		}
		offsets[i] = total
		total += c
	}
	return offsets, total, nil
}

// maxSliceCells caps one shard's slice: a worker returns each attribute
// slice in a single ppc/shard-slice frame of 8-byte cells, so a slice
// past wire.MaxFrame can never be delivered.
const maxSliceCells = wire.MaxFrame / 8

// checkSliceRange refuses a shard range outside the census total or one
// whose slice exceeds maxSliceCells. The worker applies it to an offer
// and the coordinator to its partition before dialing, in both cases
// before anything is sized from the range.
func checkSliceRange(lo, hi, total int) error {
	if lo < 0 || hi < lo || hi > total {
		return fmt.Errorf("party: shard range [%d,%d) outside the census total %d", lo, hi, total)
	}
	// Rows lo..hi−1 hold lo+…+(hi−1) cells; float64 keeps the sum and
	// product from overflowing and is exact near the cap.
	if cells := float64(hi-lo) * (float64(lo) + float64(hi) - 1) / 2; cells > maxSliceCells {
		return fmt.Errorf("party: shard range [%d,%d) holds %.0f cells, over the %d a slice frame can carry", lo, hi, cells, maxSliceCells)
	}
	return nil
}

// stageWidthFor resolves a stage-pool size: at most pipelineDepth, never
// more than there are attributes, and never more than the Parallelism
// worker budget — a party pinned to Parallelism 1 runs its assembly compute
// serially (readers still prefetch the wire), and higher budgets never
// multiply total compute goroutines by the full depth on small machines.
func stageWidthFor(nAttr, workers int) int {
	return max(1, min(pipelineDepth, nAttr, workers))
}

// runStages pulls attrs through stage on a pool of stageWidthFor(len(attrs),
// workers) goroutines, each borrowing a private protocol engine, and
// returns when the pool drains. A stage error goes to fail and ends that
// goroutine; fail is expected to unblock the rest.
func runStages(attrs []int, workers int, engines *protocol.EnginePool, stage func(eng *protocol.Engine, attr int) error, fail func(error)) {
	if len(attrs) == 0 {
		return
	}
	attrCh := make(chan int, len(attrs))
	for _, attr := range attrs {
		attrCh <- attr
	}
	close(attrCh)
	var wg sync.WaitGroup
	for w, width := 0, stageWidthFor(len(attrs), workers); w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			activeStages.Add(1)
			defer activeStages.Add(-1)
			eng := engines.Get()
			defer engines.Put(eng)
			for attr := range attrCh {
				if err := stage(eng, attr); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// laneQuotas is the per-attribute frame quota of holder hi's stream
// toward the core owning global rows [r[0], r[1]): the local-matrix chunks
// of the holder-local row intersection plus the S/M chunks of every pair
// the holder responds in, restricted the same way. Every party — the
// holder, the control and shard demuxes, the coordinator's relay pumps and
// a worker process's own demux — derives the identical vector from
// (Config, census, range) alone, so the exact stream length is known
// before the first frame moves. On a shard stream a holder with no rows
// in the shard has an all-zero vector and sends nothing there.
func (c *shardCore) laneQuotas(offsets []int, hi int, r [2]int) []int {
	attrs := c.cfg.Schema.Attrs
	quotas := make([]int, len(attrs))
	llo, lhi := shardRowsOf(r[0], r[1], offsets[hi], c.counts[hi])
	if llo >= lhi && !c.whole {
		return quotas
	}
	for attr, a := range attrs {
		if tagBased(a.Type) {
			continue
		}
		quotas[attr] = len(c.cfg.localChunksRange(llo, lhi))
		for j := 0; j < hi; j++ {
			quotas[attr] += c.cfg.pairChunkCountRange(a.Type, llo, lhi, c.counts[j])
		}
	}
	return quotas
}

// runShard is one core's session body: a stage pool pulls the comparison
// attributes through receive → evaluate → slice-assemble, writing each
// finished slice into out[attr]. A non-nil tag stage adds the tag-based
// attributes to the same pool — the single TP's case, which keeps the
// whole session within one stage budget. Errors flow through fail, which
// the caller wires to stop every demux of the session so sibling shards
// and the coordinator unwind too.
func (c *shardCore) runShard(s int, r [2]int, demux []*wire.Demux, out [][]float64, tag func(attr int) error, fail func(error)) {
	attrs := c.cfg.Schema.Attrs
	var owned []int
	for attr, a := range attrs {
		if !tagBased(a.Type) || tag != nil {
			owned = append(owned, attr)
		}
	}
	runStages(owned, c.workers, c.engines, func(eng *protocol.Engine, attr int) error {
		if tagBased(attrs[attr].Type) {
			return tag(attr)
		}
		cells, err := c.assembleShardSlice(eng, r, demux, attr)
		if err != nil {
			return fmt.Errorf("party: shard %d assembling attribute %q: %w", s, attrs[attr].Name, err)
		}
		out[attr] = cells
		return nil
	}, fail)
}

// assembleShardSlice builds one comparison attribute's slice of global
// rows [r[0], r[1]): each intersecting holder's local chunk frames, then
// each pair's S/M chunk frames over the responder-row intersection
// (recvLocalRows, recvPairRows over the range-restricted schedules). The
// slice's maximum is left to the merge, which recomputes it.
func (c *shardCore) assembleShardSlice(eng *protocol.Engine, r [2]int, demux []*wire.Demux, attr int) ([]float64, error) {
	a := c.cfg.Schema.Attrs[attr]
	sa, err := dissim.NewSliceAssembler(c.counts, r[0], r[1], c.workers)
	if err != nil {
		return nil, err
	}
	src := demuxSource{ds: demux, lane: attr}
	for hi, h := range c.holders {
		llo, lhi := sa.LocalRows(hi)
		if llo >= lhi && !c.whole {
			continue
		}
		if err := c.recvLocalRows(sa, src, hi, h, attr, c.cfg.localChunksRange(llo, lhi)); err != nil {
			return nil, err
		}
	}
	for _, pair := range sortedPairs(c.holders) {
		ji, ki := pair[0], pair[1]
		rlo, rhi := sa.CrossRows(ki)
		if rlo >= rhi && !c.whole {
			continue
		}
		j, k := c.holders[ji], c.holders[ki]
		cols := c.counts[ji]
		jt := rng.New(c.cfg.RNG, c.seed(attr, j, k))
		// Per-pair masking consumes the keystream row-major with no
		// re-initialization, so a shard whose range starts mid-block first
		// draws and discards the earlier rows' masks — its first chunk
		// then evaluates at the exact keystream position the monolithic
		// pass would use. Batch and alphanumeric evaluation rewind per
		// chunk and need no positioning (the Advance calls no-op).
		if a.Type != dataset.Alphanumeric {
			switch c.cfg.Variant {
			case Float64Variant:
				eng.AdvanceThirdPartyFloat(jt, rlo, cols, c.cfg.FloatParams, c.cfg.Mode)
			case Int64Variant:
				eng.AdvanceThirdPartyInt(jt, rlo, cols, c.cfg.IntParams, c.cfg.Mode)
			case ModPVariant:
				eng.AdvanceThirdPartyModP(jt, rlo, cols, c.cfg.Mode)
			}
		}
		chunks := c.cfg.pairChunksRange(a.Type, rlo, rhi, cols)
		if err := c.recvPairRows(eng, sa, src, attr, ji, ki, jt, chunks); err != nil {
			return nil, err
		}
	}
	cells, _, err := sa.Done()
	return cells, err
}

// recvLocalRows consumes one holder's local-matrix chunk stream for one
// attribute, restricted to the given schedule (localChunksRange over the
// holder-local intersection), installing each row-range frame the moment
// it arrives. Chunks must follow the shared schedule exactly: holder and
// third party derive it from the same Config, so any deviation is a
// protocol error.
func (c *shardCore) recvLocalRows(sa *dissim.SliceAssembler, src attrSource, hi int, h string, attr int, chunks [][2]int) error {
	n := c.counts[hi]
	for ci, ch := range chunks {
		var body localBody
		m, err := src.expect(hi, kindLocal, &body)
		if err != nil {
			return err
		}
		if m.Attr != attr {
			return fmt.Errorf("party: %s sent local matrix for attr %d, want %d", h, m.Attr, attr)
		}
		if body.N != n {
			return fmt.Errorf("party: %s local matrix has %d objects, census says %d", h, body.N, n)
		}
		if body.Lo != ch[0] || body.Hi != ch[1] {
			return fmt.Errorf("party: %s local chunk %d covers rows [%d,%d), schedule says [%d,%d)",
				h, ci, body.Lo, body.Hi, ch[0], ch[1])
		}
		if ch[0] == ch[1] {
			continue // an empty holder's one chunk carries no rows
		}
		if err := sa.SetLocalRows(hi, body.Lo, body.Hi, body.Cells); err != nil {
			return err
		}
	}
	return nil
}

// recvPairRows consumes the S/M chunk frames of one (attribute, pair)
// covering the scheduled responder row ranges (pairChunksRange over the
// responder-row intersection), evaluating and installing each chunk the
// moment it arrives — the protocol engine's *Rows methods share one jt
// stream per pair so batched keystreams stay aligned. jt arrives
// pre-positioned by the engine's AdvanceThirdParty* (per-pair mode
// consumes the keystream row-major with no re-initialization, so a range
// starting mid-block must first draw and discard the earlier rows' masks).
func (c *shardCore) recvPairRows(eng *protocol.Engine, sa *dissim.SliceAssembler, src attrSource, attr, ji, ki int, jt rng.Stream, chunks [][2]int) error {
	a := c.cfg.Schema.Attrs[attr]
	j, k := c.holders[ji], c.holders[ki]
	rows, cols := c.counts[ki], c.counts[ji]
	for ci, ch := range chunks {
		var block func(m, n int) float64
		var bRows, bCols int
		if a.Type == dataset.Alphanumeric {
			var body alphaMBody
			if _, err := src.expect(ki, kindAlphaM, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			dists, err := eng.AlphaThirdPartyRows(body.M, body.Lo, body.Hi, a.Alphabet, jt)
			if err != nil {
				return err
			}
			bRows, bCols = dists.Rows, dists.Cols
			block = func(m, n int) float64 { return float64(dists.At(m, n)) }
		} else {
			var body numSBody
			if _, err := src.expect(ki, kindNumS, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			switch c.cfg.Variant {
			case Float64Variant:
				if body.Float == nil {
					return fmt.Errorf("party: missing float payload from %s", k)
				}
				dists, err := eng.NumericThirdPartyFloatRows(body.Float, ch[0], ch[1], jt, c.cfg.FloatParams, c.cfg.Mode)
				if err != nil {
					return err
				}
				bRows, bCols = dists.Rows, dists.Cols
				block = func(m, n int) float64 { return dists.At(m, n) }
			case Int64Variant:
				if body.Int == nil {
					return fmt.Errorf("party: missing int payload from %s", k)
				}
				dists, err := eng.NumericThirdPartyIntRows(body.Int, ch[0], ch[1], jt, c.cfg.IntParams, c.cfg.Mode)
				if err != nil {
					return err
				}
				bRows, bCols = dists.Rows, dists.Cols
				block = func(m, n int) float64 { return float64(dists.At(m, n)) }
			case ModPVariant:
				if body.ModP == nil {
					return fmt.Errorf("party: missing modp payload from %s", k)
				}
				dists, err := eng.NumericThirdPartyModPRows(body.ModP, ch[0], ch[1], jt, c.cfg.Mode)
				if err != nil {
					return err
				}
				bRows, bCols = dists.Rows, dists.Cols
				block = func(m, n int) float64 { return float64(dists.At(m, n)) }
			}
		}
		// A zero-row chunk (empty responder) carries no usable column
		// count and is never consulted during assembly.
		if bRows > 0 && bCols != cols {
			return fmt.Errorf("party: block (%s,%s) rows [%d,%d) have %d columns, census says %d",
				j, k, ch[0], ch[1], bCols, cols)
		}
		if ch[0] == ch[1] {
			continue // an empty responder's one chunk carries no rows
		}
		if err := sa.SetCrossRows(ji, ki, ch[0], ch[1], block); err != nil {
			return err
		}
	}
	return nil
}

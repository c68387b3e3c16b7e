package party

import (
	"context"
	"fmt"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// The phase-serial reference third party: the oracle the differential
// tests compare the session driver against. Attributes are received,
// assembled and normalized strictly one after the other, in schema order,
// with blocking endpoint reads; chunked local triangles and S/M payloads
// are reassembled into their monolithic form and installed with the
// whole-matrix FromPacked + SetLocal and engine evaluation + SetCross.
// Holding the driver bit-identical to this path at every chunk size, shard
// count and worker count pins chunking, pipelining and sharding as pure
// scheduling.

// runSerialRef runs a complete in-memory session whose third party is the
// phase-serial reference (RunInMemoryWrapped's conduit decoration; nil
// wrap for none).
func runSerialRef(cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource, wrap ConduitWrap) (*SessionOutcome, error) {
	return runInMemory(context.Background(), cfg, parts, reqs, random, wrap, runSerialTP)
}

// runSerialTP is ThirdParty.RunContext over the phase-serial body.
func runSerialTP(tp *ThirdParty, ctx context.Context) (*TPReport, error) {
	defer tp.guard.release()
	stop := tp.guard.watchCaller(ctx)
	defer stop()
	rep, err := tp.runSerial()
	if err != nil {
		return nil, tp.guard.abort(err)
	}
	return rep, nil
}

// epSource reads the holder endpoints directly — the phase-serial
// consumption order, valid only when attributes are processed one at a
// time in schema order.
type epSource struct{ tp *ThirdParty }

func (s epSource) expect(hi int, kind wire.Kind, body any) (*wire.Message, error) {
	return expectMsg(s.tp.eps[s.tp.holders[hi]], kind, body)
}

func (tp *ThirdParty) runSerial() (*TPReport, error) {
	tp.guard.setPhase("census")
	if err := tp.census(); err != nil {
		return nil, err
	}
	tp.guard.setPhase("assemble")
	eng := tp.engines.Get()
	defer tp.engines.Put(eng)
	matrices := make([]*dissim.Matrix, len(tp.cfg.Schema.Attrs))
	scales := make([]float64, len(tp.cfg.Schema.Attrs))
	for attr, a := range tp.cfg.Schema.Attrs {
		var m *dissim.Matrix
		var err error
		if tagBased(a.Type) {
			m, err = tp.assembleTags(attr, epSource{tp})
		} else {
			m, err = tp.assembleComparisonSerial(eng, attr)
		}
		if err != nil {
			return nil, fmt.Errorf("party: assembling attribute %q: %w", a.Name, err)
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
	}
	return tp.finish(matrices, scales, func(hi int) (requestBody, error) {
		var req requestBody
		_, err := expectMsg(tp.eps[tp.holders[hi]], kindRequest, &req)
		return req, err
	})
}

// assembleComparisonSerial builds one numeric or alphanumeric attribute's
// global matrix: each holder's local matrix, then the protocol-decoded
// cross blocks in the fixed pair order every holder sends in.
func (tp *ThirdParty) assembleComparisonSerial(eng *protocol.Engine, attr int) (*dissim.Matrix, error) {
	asm, err := dissim.NewAssemblerPar(tp.counts, tp.workers)
	if err != nil {
		return nil, err
	}
	src := epSource{tp}
	for hi, h := range tp.holders {
		if err := tp.recvLocalSerial(asm, src, hi, h, attr); err != nil {
			return nil, err
		}
	}
	for _, pair := range sortedPairs(tp.holders) {
		if err := tp.recvPairSerial(eng, asm, src, attr, pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	return asm.Done()
}

// recvLocalSerial reassembles one holder's local-matrix chunks into the
// monolithic packed triangle and performs the FromPacked + SetLocal
// install.
func (tp *ThirdParty) recvLocalSerial(asm *dissim.Assembler, src attrSource, hi int, h string, attr int) error {
	n := tp.counts[hi]
	mono := make([]float64, 0, n*(n-1)/2)
	for ci, ch := range tp.cfg.localChunks(n) {
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
		mono = append(mono, body.Cells...)
	}
	local, err := dissim.FromPacked(n, mono)
	if err != nil {
		return err
	}
	return asm.SetLocal(hi, local)
}

// recvPairSerial reassembles one pair's S/M chunk stream into the
// monolithic payload, evaluates it in one whole-matrix engine pass and
// installs it with SetCross.
func (tp *ThirdParty) recvPairSerial(eng *protocol.Engine, asm *dissim.Assembler, src attrSource, attr, ji, ki int) error {
	a := tp.cfg.Schema.Attrs[attr]
	j, k := tp.holders[ji], tp.holders[ki]
	rows, cols := tp.counts[ki], tp.counts[ji]
	chunks := tp.cfg.pairChunks(a.Type, rows, cols)
	jt := rng.New(tp.cfg.RNG, tp.seedJT(attr, j, k))

	var block func(m, n int) float64
	var bRows, bCols int
	if a.Type == dataset.Alphanumeric {
		mono := make([][]*protocol.SymbolMatrix, 0, rows)
		for ci, ch := range chunks {
			var body alphaMBody
			if _, err := src.expect(ki, kindAlphaM, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			if len(body.M) != ch[1]-ch[0] {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d carries %d rows, want %d",
					k, j, k, ci, len(body.M), ch[1]-ch[0])
			}
			mono = append(mono, body.M...)
		}
		dists, err := eng.AlphaThirdParty(mono, a.Alphabet, jt)
		if err != nil {
			return err
		}
		bRows, bCols = dists.Rows, dists.Cols
		block = func(m, n int) float64 { return float64(dists.At(m, n)) }
	} else {
		var mono numSBody
		for ci, ch := range chunks {
			var body numSBody
			if _, err := src.expect(ki, kindNumS, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			if err := appendNumChunk(&mono, &body, ch, rows, cols); err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", k, j, k, ci, err)
			}
		}
		switch tp.cfg.Variant {
		case Float64Variant:
			if mono.Float == nil {
				return fmt.Errorf("party: missing float payload from %s", k)
			}
			dists, err := eng.NumericThirdPartyFloat(mono.Float, jt, tp.cfg.FloatParams, tp.cfg.Mode)
			if err != nil {
				return err
			}
			bRows, bCols = dists.Rows, dists.Cols
			block = func(m, n int) float64 { return dists.At(m, n) }
		case Int64Variant:
			if mono.Int == nil {
				return fmt.Errorf("party: missing int payload from %s", k)
			}
			dists, err := eng.NumericThirdPartyInt(mono.Int, jt, tp.cfg.IntParams, tp.cfg.Mode)
			if err != nil {
				return err
			}
			bRows, bCols = dists.Rows, dists.Cols
			block = func(m, n int) float64 { return float64(dists.At(m, n)) }
		case ModPVariant:
			if mono.ModP == nil {
				return fmt.Errorf("party: missing modp payload from %s", k)
			}
			dists, err := eng.NumericThirdPartyModP(mono.ModP, jt, tp.cfg.Mode)
			if err != nil {
				return err
			}
			bRows, bCols = dists.Rows, dists.Cols
			block = func(m, n int) float64 { return float64(dists.At(m, n)) }
		}
	}
	// A zero-row block (empty responder) carries no usable column count
	// and is never consulted during assembly.
	if bRows != rows || (bRows > 0 && bCols != cols) {
		return fmt.Errorf("party: block (%s,%s) is %dx%d, census says %dx%d", j, k, bRows, bCols, rows, cols)
	}
	return asm.SetCross(ji, ki, block)
}

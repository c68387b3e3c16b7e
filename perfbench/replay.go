package main

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/detenc"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/pam"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// Replay span names, one per layer. Each is a child of one replay root.
const (
	spanKeystream = "rng.keystream"
	spanNumeric   = "protocol.numeric"
	spanAlpha     = "protocol.alpha"
	spanCat       = "protocol.cat"
	spanHandshake = "keys.handshake"
	spanLocal     = "dissim.local"
	spanAssemble  = "dissim.assemble"
	spanMerge     = "dissim.merge"
	spanCluster   = "hcluster.cluster"
	spanQuality   = "hcluster.quality"
	spanCodec     = "wire.codec"
	spanSeal      = "wire.seal"
)

// The codec replay mirrors the shapes of the party package's chunk bodies
// (same field names and types, so gob encodes them the same way).
type localBody struct {
	N      int
	Lo, Hi int
	Cells  []float64
}

type numBody struct {
	Rows   int
	Lo, Hi int
	Float  *protocol.Float64Matrix
}

type alphaDisguisedBody struct {
	Strings []protocol.SymbolString
}

type alphaMBody struct {
	Rows   int
	Lo, Hi int
	M      [][]*protocol.SymbolMatrix
}

type catTagsBody struct {
	Tags [][32]byte
}

// countStream counts the keystream words a protocol round draws.
type countStream struct {
	inner rng.Stream
	words *atomic.Int64
}

func (c countStream) Next() uint64 { c.words.Add(1); return c.inner.Next() }
func (c countStream) Reseed()      { c.inner.Reseed() }
func (c countStream) FillUint64(dst []uint64) {
	c.words.Add(int64(len(dst)))
	rng.FillUint64(c.inner, dst)
}

// replayer re-runs each layer's public functions on the workload's
// columns and chunk schedule, outside any session, so each layer's cost
// shows on its own.
type replayer struct {
	r       *rig
	rep     *party.TPReport
	rec     *recorder
	frames  []int // wire frame sizes of one traced session, for Secure
	workers int
	counts  []int
}

func newReplayer(r *rig, rep *party.TPReport, rec *recorder, frames []int) *replayer {
	counts := make([]int, len(r.parts))
	for i, p := range r.parts {
		counts[i] = p.Table.Len()
	}
	return &replayer{r: r, rep: rep, rec: rec, frames: frames, workers: gomaxprocs(), counts: counts}
}

// attrState is one comparison attribute's replayed payloads.
type attrState struct {
	locals []*dissim.Matrix
	// cross[k][j] gives responder k × initiator j distances, j < k.
	cross map[[2]int]func(r, c int) float64
	// wire payloads of the numeric and alphanumeric rounds, per pair
	disg  map[[2]int]*protocol.Float64Matrix
	s     map[[2]int]*protocol.Float64Matrix
	adisg map[[2]int][]protocol.SymbolString
	m     map[[2]int][][]*protocol.SymbolMatrix
	tags  [][]detenc.Tag
}

func pairs(n int) [][2]int {
	var out [][2]int
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			out = append(out, [2]int{j, k})
		}
	}
	return out
}

// run performs one replay under the root span and returns the
// allocations the codec replay made.
func (p *replayer) run(root int64) (codecAllocs uint64, err error) {
	if err := p.rec.timed(root, root, spanHandshake, p.handshake); err != nil {
		return 0, err
	}
	var words atomic.Int64
	attrs := make([]*attrState, len(p.r.w.schema.Attrs))
	for a, at := range p.r.w.schema.Attrs {
		st := &attrState{cross: map[[2]int]func(int, int) float64{}, disg: map[[2]int]*protocol.Float64Matrix{},
			s: map[[2]int]*protocol.Float64Matrix{}, adisg: map[[2]int][]protocol.SymbolString{},
			m: map[[2]int][][]*protocol.SymbolMatrix{}}
		attrs[a] = st
		var err error
		switch at.Type {
		case dataset.Numeric:
			err = p.rec.timed(root, root, spanNumeric, func() error { return p.numeric(a, st, &words) })
		case dataset.Alphanumeric:
			err = p.rec.timed(root, root, spanAlpha, func() error { return p.alpha(a, at.Alphabet, st, &words) })
		case dataset.Categorical:
			err = p.rec.timed(root, root, spanCat, func() error { return p.categorical(a, at.Name, st) })
		default:
			err = fmt.Errorf("no replay for %v attributes", at.Type)
		}
		if err != nil {
			return 0, err
		}
	}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{spanKeystream, func() error { return keystream(words.Load()) }},
		{spanLocal, func() error { return p.local(attrs) }},
		{spanAssemble, func() error { return p.assemble(attrs) }},
		{spanCodec, func() (err error) { codecAllocs, err = p.codec(attrs); return err }},
		{spanSeal, p.seal},
	} {
		if err := p.rec.timed(root, root, step.name, step.fn); err != nil {
			return 0, err
		}
	}
	return codecAllocs, p.cluster(root)
}

// handshake replays key agreement: one identity per party and, per
// link, both masters and the channel key and mask seed derivations.
// Shard worker links add an ephemeral identity pair each.
func (p *replayer) handshake() error {
	names := append(append([]string(nil), p.r.w.holders...), party.TPName)
	ids := map[string]*keys.Identity{}
	for _, n := range names {
		id, err := keys.NewIdentity(n, p.r.random(n))
		if err != nil {
			return err
		}
		ids[n] = id
	}
	var links [][2]string
	for _, pr := range pairs(len(p.r.w.holders)) {
		links = append(links, [2]string{p.r.w.holders[pr[0]], p.r.w.holders[pr[1]]})
	}
	for _, h := range p.r.w.holders {
		links = append(links, [2]string{h, party.TPName})
	}
	for s := 0; s < p.r.w.shards; s++ {
		w := party.ShardName(s)
		id, err := keys.NewIdentity(w, p.r.random(w))
		if err != nil {
			return err
		}
		ids[w] = id
		links = append(links, [2]string{party.TPName, w})
	}
	for _, l := range links {
		a, b := ids[l[0]], ids[l[1]]
		ma, err := a.Master(b.PublicBytes())
		if err != nil {
			return err
		}
		mb, err := b.Master(a.PublicBytes())
		if err != nil {
			return err
		}
		keys.DeriveKey(ma, keys.PurposeChannel, l[0], l[1])
		keys.DeriveKey(mb, keys.PurposeChannel, l[0], l[1])
		keys.DeriveSeed(ma, keys.PurposeMaskRNG, l[0], l[1])
	}
	return nil
}

func (p *replayer) streams(a int, pr [2]int, words *atomic.Int64) (jk, jt func() rng.Stream) {
	seed := func(kind string) rng.Seed {
		return rng.SeedFromBytes([]byte(fmt.Sprintf("perfbench/%s/%d/%d/%d", kind, a, pr[0], pr[1])))
	}
	return func() rng.Stream { return countStream{rng.NewAESCTR(seed("jk")), words} },
		func() rng.Stream { return countStream{rng.NewAESCTR(seed("jt")), words} }
}

// numeric replays the batch-mode float64 rounds (Section 4.1) for every
// pair: the lower-named holder initiates, the other responds, the third
// party strips the masks.
func (p *replayer) numeric(a int, st *attrState, words *atomic.Int64) error {
	eng := protocol.NewEngine(p.workers)
	cols := make([][]float64, len(p.r.parts))
	for i, part := range p.r.parts {
		c, err := part.Table.NumericCol(a)
		if err != nil {
			return err
		}
		cols[i] = c
	}
	params := protocol.DefaultFloatParams
	for _, pr := range pairs(len(cols)) {
		jk, jt := p.streams(a, pr, words)
		d, err := eng.NumericInitiatorFloat(cols[pr[0]], jk(), jt(), params, protocol.Batch, len(cols[pr[1]]))
		if err != nil {
			return err
		}
		s, err := eng.NumericResponderFloat(d, cols[pr[1]], jk(), params, protocol.Batch)
		if err != nil {
			return err
		}
		o, err := eng.NumericThirdPartyFloat(s, jt(), params, protocol.Batch)
		if err != nil {
			return err
		}
		st.disg[pr], st.s[pr] = d, s
		st.cross[pr] = func(r, c int) float64 { return o.At(r, c) }
	}
	return nil
}

// alpha replays the CCM protocol (Section 4.2) for every pair.
func (p *replayer) alpha(a int, alpha *alphabet.Alphabet, st *attrState, words *atomic.Int64) error {
	eng := protocol.NewEngine(p.workers)
	cols := make([][]protocol.SymbolString, len(p.r.parts))
	for i, part := range p.r.parts {
		c, err := part.Table.SymbolCol(a)
		if err != nil {
			return err
		}
		for _, s := range c {
			cols[i] = append(cols[i], protocol.SymbolString(s))
		}
	}
	for _, pr := range pairs(len(cols)) {
		_, jt := p.streams(a, pr, words)
		disg := eng.AlphaInitiator(cols[pr[0]], alpha, jt())
		m := eng.AlphaResponder(cols[pr[1]], disg, alpha)
		o, err := eng.AlphaThirdParty(m, alpha, jt())
		if err != nil {
			return err
		}
		st.adisg[pr], st.m[pr] = disg, m
		st.cross[pr] = func(r, c int) float64 { return float64(o.At(r, c)) }
	}
	return nil
}

// categorical replays Section 4.3: every holder encrypts its column under
// the group key and the third party builds the matrix from the tags.
func (p *replayer) categorical(a int, name string, st *attrState) error {
	key := detenc.KeyFromBytes([]byte(fmt.Sprintf("perfbench/group/%d", p.r.seed)))
	enc := detenc.NewEncryptor(key, name)
	var all []detenc.Tag
	for _, part := range p.r.parts {
		col, err := part.Table.StringCol(a)
		if err != nil {
			return err
		}
		tags := protocol.CategoricalEncryptColumn(col, enc)
		st.tags = append(st.tags, tags)
		all = append(all, tags...)
	}
	dissim.FromLocalPar(len(all), p.workers, func(int) func(i, j int) float64 {
		return func(i, j int) float64 { return detenc.Distance(all[i], all[j]) }
	})
	return nil
}

// keystream draws words from a fresh AES-CTR generator: the mask
// keystream the protocol rounds above consumed.
func keystream(words int64) error {
	s := rng.NewAESCTR(rng.SeedFromUint64(uint64(words)))
	buf := make([]uint64, 4096)
	for words > 0 {
		n := min(words, int64(len(buf)))
		s.FillUint64(buf[:n])
		words -= n
	}
	return nil
}

// local replays every holder's local dissimilarity matrix.
func (p *replayer) local(attrs []*attrState) error {
	for a, at := range p.r.w.schema.Attrs {
		if at.Type == dataset.Categorical {
			continue
		}
		for _, part := range p.r.parts {
			var dist func(worker int) func(i, j int) float64
			switch at.Type {
			case dataset.Numeric:
				col, err := part.Table.NumericCol(a)
				if err != nil {
					return err
				}
				dist = func(int) func(i, j int) float64 {
					return func(i, j int) float64 {
						d := col[i] - col[j]
						if d < 0 {
							d = -d
						}
						return d
					}
				}
			case dataset.Alphanumeric:
				col, err := part.Table.SymbolCol(a)
				if err != nil {
					return err
				}
				dist = func(int) func(i, j int) float64 {
					sc := editdist.MustUnitScratch()
					return func(i, j int) float64 { return float64(sc.Distance(col[i], col[j])) }
				}
			}
			attrs[a].locals = append(attrs[a].locals, dissim.FromLocalPar(part.Table.Len(), p.workers, dist))
		}
	}
	return nil
}

// chunkCells is the default chunk budget in cells of the given width.
func chunkCells(width int) int { return party.DefaultLocalChunkBytes / width }

// pairCellBytes mirrors the pairwise chunk schedule's nominal cell width.
func pairCellBytes(t dataset.AttrType) int {
	if t == dataset.Alphanumeric {
		return 256
	}
	return 8
}

// assemble replays the third party's assembly of every comparison
// attribute on the chunk schedule, then normalization. With shards it
// replays each shard's SliceAssembler and the coordinator's merge of the
// slices instead.
func (p *replayer) assemble(attrs []*attrState) error {
	total := 0
	for _, c := range p.counts {
		total += c
	}
	for a, attr := range p.r.w.schema.Attrs {
		if attr.Type == dataset.Categorical {
			continue
		}
		st := attrs[a]
		if p.r.w.shards > 1 {
			if err := p.assembleSharded(st, attr.Type, total); err != nil {
				return err
			}
			continue
		}
		asm, err := dissim.NewAssemblerPar(p.counts, p.workers)
		if err != nil {
			return err
		}
		for h, n := range p.counts {
			for _, ch := range dissim.RowChunks(n, chunkCells(8)) {
				if err := asm.SetLocalRows(h, ch[0], ch[1], st.locals[h].PackedRowsView(ch[0], ch[1])); err != nil {
					return err
				}
			}
		}
		for _, pr := range pairs(len(p.counts)) {
			cross := st.cross[pr]
			for _, ch := range dissim.RectChunks(p.counts[pr[1]], p.counts[pr[0]], chunkCells(pairCellBytes(attr.Type))) {
				lo := ch[0]
				if err := asm.SetCrossRows(pr[0], pr[1], ch[0], ch[1], func(r, c int) float64 { return cross(lo+r, c) }); err != nil {
					return err
				}
			}
		}
		m, err := asm.Done()
		if err != nil {
			return err
		}
		m.NormalizePar(p.workers)
	}
	return nil
}

func (p *replayer) assembleSharded(st *attrState, t dataset.AttrType, total int) error {
	global := dissim.New(total)
	for _, rg := range dissim.ShardRanges(total, p.r.w.shards) {
		sa, err := dissim.NewSliceAssembler(p.counts, rg[0], rg[1], p.workers)
		if err != nil {
			return err
		}
		for h := range p.counts {
			lo, hi := sa.LocalRows(h)
			if lo >= hi {
				continue
			}
			for _, ch := range dissim.RowChunksRange(lo, hi, chunkCells(8)) {
				if err := sa.SetLocalRows(h, ch[0], ch[1], st.locals[h].PackedRowsView(ch[0], ch[1])); err != nil {
					return err
				}
			}
		}
		for _, pr := range pairs(len(p.counts)) {
			lo, hi := sa.CrossRows(pr[1])
			if lo >= hi {
				continue
			}
			cross := st.cross[pr]
			for _, ch := range dissim.RectChunksRange(lo, hi, p.counts[pr[0]], chunkCells(pairCellBytes(t))) {
				clo := ch[0]
				if err := sa.SetCrossRows(pr[0], pr[1], ch[0], ch[1], func(r, c int) float64 { return cross(clo+r, c) }); err != nil {
					return err
				}
			}
		}
		cells, _, err := sa.Done()
		if err != nil {
			return err
		}
		if err := global.SetPackedRows(rg[0], rg[1], cells); err != nil {
			return err
		}
	}
	global.NormalizePar(p.workers)
	return nil
}

// codec replays EncodeBody, Endpoint.Send, Recv and DecodeBody for every
// data-bearing message of a session on the default chunk schedule, and
// returns the allocations it made.
func (p *replayer) codec(attrs []*attrState) (uint64, error) {
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	tx, rx := wire.NewEndpoint(a), wire.NewEndpoint(b)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	send := func(body, into any) error {
		payload, err := wire.EncodeBody(body)
		if err != nil {
			return err
		}
		if err := tx.Send(&wire.Message{From: "A", To: party.TPName, Attr: 0, Payload: payload}); err != nil {
			return err
		}
		m, err := rx.Recv()
		if err != nil {
			return err
		}
		return wire.DecodeBody(m.Payload, into)
	}
	for a, at := range p.r.w.schema.Attrs {
		st := attrs[a]
		if at.Type == dataset.Categorical {
			for _, tags := range st.tags {
				raw := make([][32]byte, len(tags))
				for i, t := range tags {
					raw[i] = t
				}
				if err := send(catTagsBody{Tags: raw}, &catTagsBody{}); err != nil {
					return 0, err
				}
			}
			continue
		}
		for h, n := range p.counts {
			for _, ch := range dissim.RowChunks(n, chunkCells(8)) {
				body := localBody{N: n, Lo: ch[0], Hi: ch[1], Cells: st.locals[h].PackedRowsView(ch[0], ch[1])}
				if err := send(body, &localBody{}); err != nil {
					return 0, err
				}
			}
		}
		for _, pr := range pairs(len(p.counts)) {
			rows, cols := p.counts[pr[1]], p.counts[pr[0]]
			chunks := dissim.RectChunks(rows, cols, chunkCells(pairCellBytes(at.Type)))
			if at.Type == dataset.Alphanumeric {
				if err := send(alphaDisguisedBody{Strings: st.adisg[pr]}, &alphaDisguisedBody{}); err != nil {
					return 0, err
				}
				for _, ch := range chunks {
					body := alphaMBody{Rows: rows, Lo: ch[0], Hi: ch[1], M: st.m[pr][ch[0]:ch[1]]}
					if err := send(body, &alphaMBody{}); err != nil {
						return 0, err
					}
				}
				continue
			}
			d := st.disg[pr]
			if err := send(numBody{Rows: 1, Lo: 0, Hi: 1, Float: d}, &numBody{}); err != nil {
				return 0, err
			}
			s := st.s[pr]
			for _, ch := range chunks {
				view := &protocol.Float64Matrix{Rows: ch[1] - ch[0], Cols: s.Cols, Cell: s.Cell[ch[0]*s.Cols : ch[1]*s.Cols]}
				if err := send(numBody{Rows: rows, Lo: ch[0], Hi: ch[1], Float: view}, &numBody{}); err != nil {
					return 0, err
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, nil
}

// seal replays AES-GCM sealing and opening of every frame size one traced
// session put on the wire.
func (p *replayer) seal() error {
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	var key [32]byte
	tx, err := wire.Secure(a, key, true)
	if err != nil {
		return err
	}
	rx, err := wire.Secure(b, key, false)
	if err != nil {
		return err
	}
	biggest := 0
	for _, n := range p.frames {
		biggest = max(biggest, n)
	}
	buf := make([]byte, biggest)
	const gcmOverhead = 16
	for _, n := range p.frames {
		if err := tx.Send(buf[:max(n-gcmOverhead, 0)]); err != nil {
			return err
		}
		if _, err := rx.Recv(); err != nil {
			return err
		}
	}
	return nil
}

// cluster replays what the third party does for every holder's request on
// the session's attribute matrices: the weighted merge, the requested
// clustering and the published quality figures.
func (p *replayer) cluster(root int64) error {
	for _, h := range p.r.w.holders {
		req := p.r.w.reqs[h]
		var merged *dissim.Matrix
		if err := p.rec.timed(root, root, spanMerge, func() error {
			var err error
			merged, err = dissim.WeightedMergePar(p.rep.AttributeMatrices, p.r.w.schema.Weights(), p.workers)
			return err
		}); err != nil {
			return err
		}
		var clusters [][]int
		var labels []int
		if err := p.rec.timed(root, root, spanCluster, func() error {
			var err error
			clusters, labels, err = clusterFor(merged, req, p.workers)
			return err
		}); err != nil {
			return err
		}
		if err := p.rec.timed(root, root, spanQuality, func() error {
			if _, err := hcluster.QualityPar(merged, clusters, p.workers); err != nil {
				return err
			}
			_, err := hcluster.SilhouettePar(merged, labels, p.workers)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func clusterFor(m *dissim.Matrix, req party.ClusterRequest, workers int) ([][]int, []int, error) {
	k := min(max(req.K, 1), m.N())
	if req.Method == party.MethodPAM {
		seed := rng.SeedFromBytes([]byte(fmt.Sprintf("ppc/pam/%d/%d", m.N(), k)))
		res, err := pam.Cluster(m, k, rng.NewXoshiro(seed), pam.Config{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return res.Clusters(), res.Labels, nil
	}
	var dg *hcluster.Dendrogram
	var err error
	if req.Method == party.MethodDiana {
		dg, err = hcluster.DianaPar(m, workers)
	} else {
		dg, err = hcluster.ClusterPar(m, req.Linkage, workers)
	}
	if err != nil {
		return nil, nil, err
	}
	clusters, err := dg.CutK(k)
	if err != nil {
		return nil, nil, err
	}
	labels, err := dg.Labels(k)
	return clusters, labels, err
}

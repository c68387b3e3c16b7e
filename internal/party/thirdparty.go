package party

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"sync/atomic"

	"ppclust/internal/catdist"
	"ppclust/internal/dataset"
	"ppclust/internal/detenc"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/pam"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// activeStages counts the pipeline stage goroutines currently live across
// every ThirdParty in the process — the stage-pool occupancy gauge the
// multi-tenant server exports. Process-wide on purpose: occupancy is a
// statement about the machine's compute in flight, not about one session.
var activeStages atomic.Int64

// ActiveStages reports how many pipeline stage goroutines are running
// right now, summed over all concurrent third-party sessions.
func ActiveStages() int64 { return activeStages.Load() }

// pipelineDepth bounds how many attribute stages may be in flight at the
// third party at once: the stage pool has this many goroutines, and each
// holder stream's per-attribute mailboxes hold at most laneBuffer
// messages, so a fast sender can run only a bounded distance ahead of
// assembly. Depth 4 keeps the CPU fed on real links without hoarding
// per-stage scratch memory. The effective width is further capped by the
// session's Parallelism budget (see stageWidthFor): stage concurrency must
// never put more compute in flight than the operator allowed, and at
// Parallelism 1 assembly compute stays strictly serial — wire overlap
// then comes from the demux readers prefetching into their mailboxes.
const pipelineDepth = 4

// laneBuffer is the per-(holder, attribute) mailbox capacity of the
// session demultiplexers.
const laneBuffer = 2

// ThirdParty runs the TP side of the session: it "does not have any data
// but serves as a means of computation power and storage space" (paper
// Section 3), governing communication, assembling the dissimilarity
// matrices and publishing clustering results.
type ThirdParty struct {
	holders []string
	cfg     Config
	random  io.Reader
	workers int
	engines *protocol.EnginePool

	identity *keys.Identity
	eps      map[string]*wire.Endpoint
	masters  map[string][]byte
	counts   []int
	guard    *guard

	// shardConduits[s][holder] is the secured holder→shard-s conduit;
	// empty (nil) for the single TP. In-process shards read it through a
	// demux; with worker processes (Config.ShardDial set) the coordinator
	// relays each frame, byte for byte, to the owning worker. The shard
	// split partitions rows and wire lanes, not trust.
	shardConduits []map[string]wire.Conduit

	// resumeLanes registers each Reconn-armed holder lane for Resume;
	// nil unless Config.ResumeWindow is positive. Written only during the
	// handshake, read-only after — Resume may be called concurrently.
	resumeLanes map[laneKey]*resumeLane
}

// TPReport is the third party's session outcome. AttributeMatrices and
// Scales expose the assembled (normalized) per-attribute matrices for
// experiments and tests; in a deployment they remain TP-internal state —
// the paper requires that only Results leave the third party.
type TPReport struct {
	// ObjectIDs is the global object ordering.
	ObjectIDs []dataset.ObjectID
	// AttributeMatrices holds the normalized global matrix per attribute.
	AttributeMatrices []*dissim.Matrix
	// Scales holds each attribute matrix's normalization divisor.
	Scales []float64
	// Results maps holder name to the result published to that holder.
	Results map[string]*Result
}

// NewThirdParty prepares the third party with conduits keyed by holder
// name. random sources the TP identity; nil uses crypto/rand.
func NewThirdParty(holders []string, cfg Config, conduits map[string]wire.Conduit, random io.Reader) (*ThirdParty, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if err := validHolderNames(holders); err != nil {
		return nil, err
	}
	if random == nil {
		random = rand.Reader
	}
	for _, h := range holders {
		if conduits[h] == nil {
			return nil, fmt.Errorf("party: third party missing conduit to %s", h)
		}
	}
	if k := cfg.shardCount(); k > 1 {
		for _, h := range holders {
			for s := 0; s < k; s++ {
				if conduits[ShardConduitKey(h, s)] == nil {
					return nil, fmt.Errorf("party: third party missing shard conduit %q", ShardConduitKey(h, s))
				}
			}
		}
	}
	tp := &ThirdParty{
		holders: holders,
		cfg:     cfg,
		random:  random,
		workers: parallel.Workers(cfg.Parallelism),
		engines: protocol.NewEnginePool(cfg.Parallelism),
		eps:     make(map[string]*wire.Endpoint),
		masters: make(map[string][]byte),
	}
	// The guard arms before the handshake so the session deadline and phase
	// watchdog bound construction too: a holder that never answers hello
	// becomes a classified timeout, not a hang.
	tp.guard = newGuard(TPName, cfg)
	if err := tp.handshakeAll(conduits); err != nil {
		err = tp.guard.abort(err)
		tp.guard.release()
		return nil, err
	}
	return tp, nil
}

func (tp *ThirdParty) handshakeAll(conduits map[string]wire.Conduit) error {
	var err error
	tp.identity, err = keys.NewIdentity(TPName, tp.random)
	if err != nil {
		return err
	}
	hello := helloBody{Public: tp.identity.PublicBytes(), Fingerprint: schemaFingerprint(tp.cfg.Schema)}
	if k := tp.cfg.shardCount(); k > 1 {
		tp.shardConduits = make([]map[string]wire.Conduit, k)
		for s := range tp.shardConduits {
			tp.shardConduits[s] = make(map[string]wire.Conduit)
		}
	}
	for _, h := range tp.holders {
		secured, master, err := tp.secureLane(h, TPName, 0, conduits[h], hello)
		if err != nil {
			return err
		}
		tp.masters[h] = master
		tp.eps[h] = wire.NewEndpoint(secured)
		// Shard conduits, ascending, right after the holder's control
		// conduit — the holder handshakes them in the same order, and both
		// sides send their hello before reading the peer's, so no conduit
		// ordering can deadlock. The shards reuse the TP identity (one
		// X25519 agreement per holder, so the master is unchanged), but
		// each conduit derives its own channel key salted by the shard
		// name — control and shard channels never share AES-GCM keys.
		// The holder's side is identical whether the shard runs in-process
		// or as a worker process: in remote mode the coordinator keeps the
		// secured conduit and relays its frames to the worker.
		for s := range tp.shardConduits {
			name := ShardName(s)
			ssecured, shardMaster, err := tp.secureLane(h, name, s+1, conduits[ShardConduitKey(h, s)], hello)
			if err != nil {
				return err
			}
			if string(shardMaster) != string(master) {
				return fmt.Errorf("party: %s presented a different identity on shard conduit %s", h, name)
			}
			tp.shardConduits[s][h] = ssecured
		}
	}
	// With every channel established the third party can explain a failure
	// to its peers: abort frames go to every holder.
	tp.guard.setNotify(func(reason string) {
		sendAbortAll(TPName, tp.eps, reason)
	})
	return nil
}

// secureLane runs the hello exchange on one holder lane — the control
// conduit (TPName, resume lane 0) or shard conduit s (ShardName(s), lane
// s+1) — returning the secured conduit and the lane's X25519 master. bind
// sits on the raw conduit, below AES-GCM, so a lifecycle cancel closes the
// real transport, and every frame either way feeds the watchdog.
func (tp *ThirdParty) secureLane(h, name string, lane int, raw wire.Conduit, hello helloBody) (wire.Conduit, []byte, error) {
	bound := tp.guard.bind(raw)
	ep := wire.NewEndpoint(bound)
	if err := ep.SendBody(wire.Message{From: name, To: h, Kind: kindHello, Attr: -1}, hello); err != nil {
		return nil, nil, err
	}
	var peer helloBody
	if _, err := expectMsg(ep, kindHello, &peer); err != nil {
		return nil, nil, fmt.Errorf("party: %s hello from %s: %w", name, h, err)
	}
	if peer.Fingerprint != hello.Fingerprint {
		return nil, nil, fmt.Errorf("party: %s and %s disagree on the schema", name, h)
	}
	master, err := tp.identity.Master(peer.Public)
	if err != nil {
		return nil, nil, err
	}
	secured := bound
	if !tp.cfg.PlaintextChannels {
		if secured, err = wire.Secure(bound, keys.DeriveKey(master, keys.PurposeChannel, h, name), false); err != nil {
			return nil, nil, err
		}
	}
	// Resumable sessions park a severed holder lane in the Reconn and
	// wait for the acceptor to deliver a replacement via Resume.
	if tp.cfg.ResumeWindow > 0 {
		secured = tp.armResume(secured, h, lane)
	}
	return secured, master, nil
}

// seedJT mirrors Holder.seedJT for the initiator j of pair (j, k).
func (tp *ThirdParty) seedJT(attr int, j, k string) rng.Seed {
	base := keys.DeriveSeed(tp.masters[j], keys.PurposeMaskRNG, j, TPName)
	return ctxSeed(base, fmt.Sprintf("attr/%d/pair/%s/%s", attr, j, k))
}

// attrSource feeds one attribute's assembly stage the protocol messages
// of that attribute, per holder, in the holder's send order. The session
// driver backs it with demultiplexed mailboxes; the phase-serial test
// reference reads the endpoints directly.
type attrSource interface {
	expect(hi int, kind wire.Kind, body any) (*wire.Message, error)
}

// demuxSource pulls a fixed attribute lane out of each holder's session
// demultiplexer.
type demuxSource struct {
	ds   []*wire.Demux
	lane int
}

func (s demuxSource) expect(hi int, kind wire.Kind, body any) (*wire.Message, error) {
	return s.ds[hi].Expect(s.lane, kind, body)
}

// Run executes the third party's side and returns the session report.
//
// The per-attribute work runs as a bounded pipeline: one reader goroutine
// per holder stream demultiplexes it into per-attribute mailboxes, and
// pools of at most pipelineDepth stage goroutines pull attributes through
// receive → evaluate → assemble, so attribute i's matrix is being decoded
// and assembled while attribute i+1 is still streaming in, and clustering
// starts the moment the last matrix lands. Every stage writes only its
// own attribute's slot and borrows a private engine from the pool, so the
// report is bit-identical at any worker count, shard count or pipeline
// schedule.
func (tp *ThirdParty) Run() (*TPReport, error) { return tp.RunContext(context.Background()) }

// RunContext is Run bounded by a caller context: cancelling ctx aborts the
// session (classified under ErrAborted, holders notified with the cause)
// and unwinds promptly — demux readers, stage-pool goroutines and blocked
// transport calls all exit — even mid-stream. Config.SessionTimeout and
// Config.PhaseTimeout bound the session independently of ctx. On a clean
// return conduit ownership stays with the caller, exactly as with Run.
func (tp *ThirdParty) RunContext(ctx context.Context) (*TPReport, error) {
	defer tp.guard.release()
	stop := tp.guard.watchCaller(ctx)
	defer stop()
	rep, err := tp.run()
	if err != nil {
		return nil, tp.guard.abort(err)
	}
	return rep, nil
}

// run is the third party's one session body, for every shard count and
// deployment: census → row ranges → per-holder control demux → slice
// producers → tag-attribute stages → merge → finish. The single TP is the
// K=1 case: one range covers the whole triangle and its local producer
// reads the control demuxes, with the tag attributes in its stage pool so
// the session runs at most stageWidthFor(nAttr, workers) stages. With
// K > 1 the slices come from in-process shards or worker processes fed by
// the shard conduits, and the tag attributes get a pool of their own.
func (tp *ThirdParty) run() (*TPReport, error) {
	tp.guard.setPhase("census")
	if err := tp.census(); err != nil {
		return nil, err
	}
	tp.guard.setPhase("assemble")
	offsets, total, err := censusLayout(tp.counts)
	if err != nil {
		return nil, err
	}
	attrs := tp.cfg.Schema.Attrs
	nAttr := len(attrs)
	reqLane := nAttr
	k := tp.cfg.shardCount()
	// With fewer rows than shards, ShardRanges returns fewer ranges and
	// the surplus conduits stay idle on both sides.
	ranges := dissim.ShardRanges(total, k)
	if k == 1 {
		// Single-TP holders send every schedule unrestricted — an empty
		// holder its one empty chunk — so even an all-empty census needs
		// a (then empty) range whose producer drains those frames.
		ranges = [][2]int{{0, total}}
	}
	core := tp.core()

	// One demux per holder control conduit: lane a carries attribute a's
	// frames (a tag column, or at K=1 the comparison chunk frames), the
	// extra lane the clustering request that ends the holder's stream.
	classify := shardClassifier(nAttr, reqLane)
	ctl := make([]*wire.Demux, len(tp.holders))
	for hi, h := range tp.holders {
		quotas := make([]int, nAttr+1)
		if k == 1 {
			copy(quotas, core.laneQuotas(offsets, hi, ranges[0]))
		}
		for attr, a := range attrs {
			if tagBased(a.Type) {
				quotas[attr] = 1 // the encrypted column
			}
		}
		quotas[reqLane] = 1
		ctl[hi] = wire.NewDemux(tp.eps[h], quotas, laneBuffer, classify)
	}
	defer stopDemuxes(ctl)
	asm := &assembly{}
	asm.onFail(func() { stopDemuxes(ctl) })

	matrices := make([]*dissim.Matrix, nAttr)
	scales := make([]float64, nAttr)
	tagStage := func(attr int) error {
		m, err := tp.assembleTags(attr, demuxSource{ds: ctl, lane: attr})
		if err != nil {
			return fmt.Errorf("party: assembling attribute %q: %w", attrs[attr].Name, err)
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
		return nil
	}
	slices := make([][][]float64, len(ranges))
	for s := range slices {
		slices[s] = make([][]float64, nAttr)
	}
	var settle func()
	switch {
	case k == 1:
		asm.spawn(func() { core.runShard(0, ranges[0], ctl, slices[0], tagStage, asm.fail) })
	case tp.cfg.ShardDial != nil:
		if settle, err = tp.startRemoteShards(asm, core, ranges, offsets, total, slices); err != nil {
			return nil, err
		}
	default:
		tp.startLocalShards(asm, core, ranges, offsets, slices)
	}
	if k > 1 {
		var tagAttrs []int
		for attr, a := range attrs {
			if tagBased(a.Type) {
				tagAttrs = append(tagAttrs, attr)
			}
		}
		asm.spawn(func() {
			runStages(tagAttrs, tp.workers, tp.engines, func(_ *protocol.Engine, attr int) error {
				return tagStage(attr)
			}, asm.fail)
		})
	}
	if err := asm.wait(); err != nil {
		return nil, err
	}
	if settle != nil {
		settle()
	}

	if err := tp.mergeShardSlices(total, ranges, slices, matrices, scales); err != nil {
		return nil, err
	}
	return tp.finish(matrices, scales, func(hi int) (requestBody, error) {
		var req requestBody
		_, err := ctl[hi].Expect(reqLane, kindRequest, &req)
		return req, err
	})
}

// assembleTags dispatches one tag-based attribute's receive+assemble.
func (tp *ThirdParty) assembleTags(attr int, src attrSource) (*dissim.Matrix, error) {
	if tp.cfg.Schema.Attrs[attr].Type == dataset.Categorical {
		return tp.assembleCategorical(attr, src)
	}
	return tp.assembleHierarchical(attr, src)
}

// finish serves the clustering requests: each holder's request is read
// (nextReq, in holder order), answered from the assembled matrices, and
// the results are published. Requests arrive after all of a holder's
// protocol traffic, so by the time the last matrix lands they are
// typically already buffered and clustering starts immediately.
func (tp *ThirdParty) finish(matrices []*dissim.Matrix, scales []float64, nextReq func(hi int) (requestBody, error)) (*TPReport, error) {
	tp.guard.setPhase("cluster-publish")
	report := &TPReport{
		ObjectIDs:         tp.objectIDs(),
		AttributeMatrices: matrices,
		Scales:            scales,
		Results:           make(map[string]*Result),
	}
	for hi, h := range tp.holders {
		req, err := nextReq(hi)
		if err != nil {
			return nil, err
		}
		res, err := tp.cluster(matrices, req)
		if err != nil {
			return nil, fmt.Errorf("party: clustering for %s: %w", h, err)
		}
		report.Results[h] = res
	}
	for _, h := range tp.holders {
		res := report.Results[h]
		body := resultBody{Quality: res.Quality, Silhouette: res.Silhouette,
			Method: int(res.Method), Linkage: int(res.Linkage), K: res.K}
		for _, members := range res.Clusters {
			sites := make([]string, len(members))
			idxs := make([]int, len(members))
			for i, m := range members {
				sites[i] = m.Site
				idxs[i] = m.Index
			}
			body.ClusterSites = append(body.ClusterSites, sites)
			body.ClusterIndices = append(body.ClusterIndices, idxs)
		}
		msg := wire.Message{From: TPName, To: h, Kind: kindResult, Attr: -1}
		if err := tp.eps[h].SendBody(msg, body); err != nil {
			return nil, err
		}
	}
	return report, nil
}

func (tp *ThirdParty) census() error {
	tp.counts = make([]int, len(tp.holders))
	for i, h := range tp.holders {
		var c countBody
		if _, err := expectMsg(tp.eps[h], kindCount, &c); err != nil {
			return err
		}
		if c.Count < 0 {
			return fmt.Errorf("party: negative count from %s", h)
		}
		tp.counts[i] = c.Count
	}
	if tp.cfg.OnCensus != nil {
		// The budget hook sits between gathering and broadcast: the true
		// session size is known, no partition-sized payload has moved, and
		// a refusal aborts the session with the hook's reason (classified,
		// holders notified) instead of letting it start over budget.
		if err := tp.cfg.OnCensus(append([]int(nil), tp.counts...)); err != nil {
			return fmt.Errorf("party: census refused: %w", err)
		}
	}
	census := censusBody{Holders: tp.holders, Counts: tp.counts}
	for _, h := range tp.holders {
		msg := wire.Message{From: TPName, To: h, Kind: kindCensus, Attr: -1}
		if err := tp.eps[h].SendBody(msg, census); err != nil {
			return err
		}
	}
	return nil
}

// checkPairChunk validates one received S/M chunk frame against the
// shared pairChunks schedule. Responder and third party derive the
// schedule from the same Config and census, so a frame that claims a
// different row count or covers a different range — duplicated,
// out-of-order or misdrawn chunks — is a protocol error, reported
// descriptively rather than installed.
func checkPairChunk(j, k string, ci int, sched [2]int, bodyRows, lo, hi, rows int) error {
	if bodyRows != rows {
		return fmt.Errorf("party: %s S/M payload for pair (%s,%s) claims %d rows, census says %d", k, j, k, bodyRows, rows)
	}
	if lo != sched[0] || hi != sched[1] {
		return fmt.Errorf("party: %s pair (%s,%s) chunk %d covers rows [%d,%d), schedule says [%d,%d)",
			k, j, k, ci, lo, hi, sched[0], sched[1])
	}
	return nil
}

// assembleCategorical merges the holders' encrypted columns and runs the
// Figure 12 construction over the combined tags (paper Section 5:
// "Construction algorithm for categorical data is much simpler").
func (tp *ThirdParty) assembleCategorical(attr int, src attrSource) (*dissim.Matrix, error) {
	var all []detenc.Tag
	for hi, h := range tp.holders {
		var body catTagsBody
		m, err := src.expect(hi, kindCatTags, &body)
		if err != nil {
			return nil, err
		}
		if m.Attr != attr {
			return nil, fmt.Errorf("party: %s sent tags for attr %d, want %d", h, m.Attr, attr)
		}
		if len(body.Tags) != tp.counts[hi] {
			return nil, fmt.Errorf("party: %s sent %d tags, census says %d", h, len(body.Tags), tp.counts[hi])
		}
		for _, t := range body.Tags {
			all = append(all, detenc.Tag(t))
		}
	}
	dist := func(i, j int) float64 {
		return detenc.Distance(all[i], all[j])
	}
	return dissim.FromLocalPar(len(all), tp.workers, func(int) func(i, j int) float64 { return dist }), nil
}

// assembleHierarchical merges the holders' encrypted path columns and
// evaluates the taxonomy distance on tag sequences — the future-work
// extension of Section 4.3 realized with the same trust structure as
// categorical attributes.
func (tp *ThirdParty) assembleHierarchical(attr int, src attrSource) (*dissim.Matrix, error) {
	var all [][]detenc.Tag
	for hi, h := range tp.holders {
		var body pathTagsBody
		m, err := src.expect(hi, kindPathTags, &body)
		if err != nil {
			return nil, err
		}
		if m.Attr != attr {
			return nil, fmt.Errorf("party: %s sent path tags for attr %d, want %d", h, m.Attr, attr)
		}
		if len(body.Paths) != tp.counts[hi] {
			return nil, fmt.Errorf("party: %s sent %d paths, census says %d", h, len(body.Paths), tp.counts[hi])
		}
		for _, raw := range body.Paths {
			if len(raw) == 0 {
				return nil, fmt.Errorf("party: %s sent an empty taxonomy path", h)
			}
			path := make([]detenc.Tag, len(raw))
			for j, t := range raw {
				path[j] = detenc.Tag(t)
			}
			all = append(all, path)
		}
	}
	dist := func(i, j int) float64 {
		return catdist.TagDistance(all[i], all[j])
	}
	return dissim.FromLocalPar(len(all), tp.workers, func(int) func(i, j int) float64 { return dist }), nil
}

func (tp *ThirdParty) objectIDs() []dataset.ObjectID {
	var out []dataset.ObjectID
	for hi, h := range tp.holders {
		for i := 0; i < tp.counts[hi]; i++ {
			out = append(out, dataset.ObjectID{Site: h, Index: i})
		}
	}
	return out
}

// cluster merges the attribute matrices under the request's weights, runs
// the requested clustering algorithm and packages the published result.
func (tp *ThirdParty) cluster(matrices []*dissim.Matrix, req requestBody) (*Result, error) {
	merged, err := dissim.WeightedMergePar(matrices, req.Weights, tp.workers)
	if err != nil {
		return nil, err
	}
	method := Method(req.Method)
	link := hcluster.Linkage(req.Linkage)
	if merged.N() == 0 {
		// A census of zero objects (all holders empty) publishes an empty
		// result rather than failing the session.
		return &Result{Method: method, Linkage: link, K: 0}, nil
	}
	k := req.K
	if k < 1 {
		k = 1
	}
	if k > merged.N() {
		k = merged.N()
	}

	var clusters [][]int
	var labels []int
	switch method {
	case MethodAgglomerative, MethodDiana:
		var dg *hcluster.Dendrogram
		if method == MethodDiana {
			dg, err = hcluster.DianaPar(merged, tp.workers)
		} else {
			dg, err = hcluster.ClusterPar(merged, link, tp.workers)
		}
		if err != nil {
			return nil, err
		}
		if clusters, err = dg.CutK(k); err != nil {
			return nil, err
		}
		if labels, err = dg.Labels(k); err != nil {
			return nil, err
		}
	case MethodPAM:
		// PAM's tie-breaking stream is derived deterministically from the
		// problem shape so results reproduce across runs and deployments.
		seed := rng.SeedFromBytes([]byte(fmt.Sprintf("ppc/pam/%d/%d", merged.N(), k)))
		res, err := pam.Cluster(merged, k, rng.NewXoshiro(seed), pam.Config{Workers: tp.workers})
		if err != nil {
			return nil, err
		}
		clusters = res.Clusters()
		labels = res.Labels
	default:
		return nil, fmt.Errorf("party: unknown clustering method %d", req.Method)
	}

	quality, err := hcluster.QualityPar(merged, clusters, tp.workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Quality: quality, Method: method, Linkage: link, K: k}
	if k >= 2 {
		// Silhouette is undefined for degenerate partitions; publish 0
		// rather than failing the session.
		if s, err := hcluster.SilhouettePar(merged, labels, tp.workers); err == nil {
			res.Silhouette = s
		}
	}
	ids := tp.objectIDs()
	for _, members := range clusters {
		objs := make([]dataset.ObjectID, len(members))
		for i, m := range members {
			objs[i] = ids[m]
		}
		res.Clusters = append(res.Clusters, objs)
	}
	return res, nil
}

package party

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/wire"
)

// Traffic maps directed link names ("A->B", "B->TP", …) to the byte
// counters observed at the sending end's outermost (wire) layer.
type Traffic map[string]*wire.Counter

// LinkName renders the directed link key used in Traffic.
func LinkName(from, to string) string { return from + "->" + to }

// SessionOutcome bundles everything a completed in-memory session produced.
type SessionOutcome struct {
	// Results maps holder name to the result it received.
	Results map[string]*Result
	// Report is the third party's internal state (for experiments).
	Report *TPReport
	// Traffic holds per-endpoint byte counters, keyed by LinkName. Each
	// conduit end counts both directions; "A->B" is A's view of the A–B
	// link.
	Traffic Traffic
}

// RandomSource supplies per-party randomness; nil readers fall back to
// crypto/rand. Tests inject deterministic streams.
type RandomSource func(party string) io.Reader

// ConduitWrap decorates one party's end of an in-memory session link
// before the session starts: owner is the party holding that end, peer
// the party on the other side. Tests and benchmarks use it to inject
// link conditions (latency, jitter, corruption) into RunInMemoryWrapped;
// the wrapper sits inside the traffic meter, so byte counts are
// unaffected.
type ConduitWrap func(owner, peer string, c wire.Conduit) wire.Conduit

// RunInMemory executes a complete session over in-memory conduits: one
// goroutine per party, full handshake, comparison protocols, assembly and
// clustering. parts must be in ascending site-name order; reqs maps holder
// name to its clustering request (missing entries get defaults).
func RunInMemory(cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource) (*SessionOutcome, error) {
	return RunInMemoryWrappedContext(context.Background(), cfg, parts, reqs, random, nil)
}

// RunInMemoryContext is RunInMemory bounded by a caller context: cancelling
// ctx aborts every party's session (see Holder.RunContext).
func RunInMemoryContext(ctx context.Context, cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource) (*SessionOutcome, error) {
	return RunInMemoryWrappedContext(ctx, cfg, parts, reqs, random, nil)
}

// RunInMemoryWrapped is RunInMemory with every conduit end passed through
// wrap (nil means no decoration).
func RunInMemoryWrapped(cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource, wrap ConduitWrap) (*SessionOutcome, error) {
	return RunInMemoryWrappedContext(context.Background(), cfg, parts, reqs, random, wrap)
}

// RunInMemoryWrappedContext is the full-control driver: caller context plus
// per-end conduit decoration.
func RunInMemoryWrappedContext(ctx context.Context, cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource, wrap ConduitWrap) (*SessionOutcome, error) {
	return runInMemory(ctx, cfg, parts, reqs, random, wrap, (*ThirdParty).RunContext)
}

// runInMemory is the driver behind every RunInMemory form; runTP runs the
// third party's side, so tests can substitute a reference third party.
func runInMemory(ctx context.Context, cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource, wrap ConduitWrap,
	runTP func(tp *ThirdParty, ctx context.Context) (*TPReport, error)) (*SessionOutcome, error) {
	holders := make([]string, len(parts))
	for i, p := range parts {
		holders[i] = p.Site
	}
	if err := validHolderNames(holders); err != nil {
		return nil, err
	}
	if random == nil {
		random = func(string) io.Reader { return nil }
	}

	traffic := make(Traffic)
	// conduitFor[a][b] is a's end of the a–b link, metered.
	conduitFor := make(map[string]map[string]wire.Conduit)
	raw := []wire.Conduit{}
	addLink := func(a, b string) {
		ca, cb := wire.Pipe()
		raw = append(raw, ca, cb)
		ctrA, ctrB := &wire.Counter{}, &wire.Counter{}
		traffic[LinkName(a, b)] = ctrA
		traffic[LinkName(b, a)] = ctrB
		if conduitFor[a] == nil {
			conduitFor[a] = map[string]wire.Conduit{}
		}
		if conduitFor[b] == nil {
			conduitFor[b] = map[string]wire.Conduit{}
		}
		wa, wb := ca, cb
		if wrap != nil {
			wa, wb = wrap(a, b, ca), wrap(b, a, cb)
		}
		conduitFor[a][b] = wire.Meter(wa, ctrA)
		conduitFor[b][a] = wire.Meter(wb, ctrB)
	}
	for i := range holders {
		for j := i + 1; j < len(holders); j++ {
			addLink(holders[i], holders[j])
		}
		addLink(holders[i], TPName)
	}
	// Shard conduits: one extra link per (holder, shard) when the session
	// shards the third party. The holder keys its end by the shard name;
	// the third party keys every shard end by ShardConduitKey, so one flat
	// conduit map carries all K+1 lanes per holder. Traffic names the links
	// "A->TP#0" / "TP#0->A".
	if k := cfg.shardCount(); k > 1 {
		for _, h := range holders {
			for s := 0; s < k; s++ {
				name := ShardName(s)
				ca, cb := wire.Pipe()
				raw = append(raw, ca, cb)
				ctrA, ctrB := &wire.Counter{}, &wire.Counter{}
				traffic[LinkName(h, name)] = ctrA
				traffic[LinkName(name, h)] = ctrB
				wa, wb := ca, cb
				if wrap != nil {
					wa, wb = wrap(h, name, ca), wrap(name, h, cb)
				}
				conduitFor[h][name] = wire.Meter(wa, ctrA)
				conduitFor[TPName][ShardConduitKey(h, s)] = wire.Meter(wb, ctrB)
			}
		}
	}
	// Mid-session resume plumbing: when the session arms a reconnect
	// window and the caller supplied no Redial, the driver stands in for
	// the deployment's dialer and acceptor — a holder redial creates a
	// fresh pipe, runs the validation the network acceptor would run, and
	// hands the TP end to the granted ticket on its own goroutine (the two
	// replays must drain each other concurrently). Replacement pipes pass
	// through the same wrap under the same (owner, peer) names, so chaos
	// wraps decide per lane instance whether the replacement flaps too.
	var tpCell atomic.Pointer[ThirdParty]
	var redialMu sync.Mutex
	var redialRaw []wire.Conduit
	holderCfg := cfg
	if cfg.ResumeWindow > 0 && cfg.Redial == nil {
		holderCfg.Redial = func(_ context.Context, holder string, lane int, st ResumeState) (wire.Conduit, ResumeGrant, error) {
			tp := tpCell.Load()
			if tp == nil {
				return nil, ResumeGrant{}, errors.New("party: third party not accepting yet")
			}
			ticket, err := tp.Resume(holder, lane, st.Epoch, st.Sent, st.Recv)
			if err != nil {
				return nil, ResumeGrant{}, err
			}
			peer := laneConduitName(lane)
			ca, cb := wire.Pipe()
			redialMu.Lock()
			redialRaw = append(redialRaw, ca, cb)
			redialMu.Unlock()
			wa, wb := ca, cb
			if wrap != nil {
				wa, wb = wrap(holder, peer, ca), wrap(peer, holder, cb)
			}
			go ticket.Complete(wb)
			return wa, ticket.Grant(), nil
		}
	}
	closeAll := func() {
		for _, c := range raw {
			c.Close()
		}
		redialMu.Lock()
		rr := redialRaw
		redialMu.Unlock()
		for _, c := range rr {
			c.Close()
		}
	}
	defer closeAll()

	type holderOut struct {
		name string
		res  *Result
		err  error
	}
	var wg sync.WaitGroup
	holderCh := make(chan holderOut, len(parts))
	for _, p := range parts {
		wg.Add(1)
		go func(p dataset.Partition) {
			defer wg.Done()
			req := reqs[p.Site]
			h, err := NewHolder(p.Site, p.Table, holders, holderCfg, req, conduitFor[p.Site], random(p.Site))
			if err != nil {
				holderCh <- holderOut{name: p.Site, err: err}
				closeAll()
				return
			}
			res, err := h.RunContext(ctx)
			holderCh <- holderOut{name: p.Site, res: res, err: err}
			if err != nil {
				closeAll()
			}
		}(p)
	}

	var report *TPReport
	var tpErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tp, err := NewThirdParty(holders, cfg, conduitFor[TPName], random(TPName))
		if err != nil {
			tpErr = err
			closeAll()
			return
		}
		tpCell.Store(tp)
		report, tpErr = runTP(tp, ctx)
		if tpErr != nil {
			closeAll()
		}
	}()
	wg.Wait()
	close(holderCh)

	outcome := &SessionOutcome{Results: make(map[string]*Result), Report: report, Traffic: traffic}
	var errs []error
	if tpErr != nil {
		errs = append(errs, fmt.Errorf("third party: %w", tpErr))
	}
	for out := range holderCh {
		if out.err != nil {
			errs = append(errs, fmt.Errorf("holder %s: %w", out.name, out.err))
			continue
		}
		outcome.Results[out.name] = out.res
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return outcome, nil
}

// CentralizedMatrices is the non-private baseline: concatenate all
// partitions and build each attribute's global dissimilarity matrix
// directly from plaintext (Figure 12 over the merged data), normalized like
// the third party's. Experiment E9 compares the private session's matrices
// against these.
func CentralizedMatrices(schema dataset.Schema, parts []dataset.Partition) ([]*dissim.Matrix, []float64, error) {
	if err := schema.Validate(); err != nil {
		return nil, nil, err
	}
	all, err := dataset.Concat(parts)
	if err != nil {
		return nil, nil, err
	}
	matrices := make([]*dissim.Matrix, len(schema.Attrs))
	scales := make([]float64, len(schema.Attrs))
	for attr, a := range schema.Attrs {
		m, err := centralizedMatrix(all, attr, a)
		if err != nil {
			return nil, nil, err
		}
		scales[attr] = m.Normalize()
		matrices[attr] = m
	}
	return matrices, scales, nil
}

// centralizedMatrix builds one attribute's plaintext dissimilarity matrix
// over the concatenated table. The switch must stay exhaustive: an
// attribute type it does not know is reported as an error — never a nil
// matrix, which would crash the Normalize that follows.
func centralizedMatrix(all *dataset.Table, attr int, a dataset.Attribute) (*dissim.Matrix, error) {
	n := all.Len()
	switch a.Type {
	case dataset.Numeric:
		col, err := all.NumericCol(attr)
		if err != nil {
			return nil, err
		}
		return dissim.FromLocal(n, func(i, j int) float64 {
			return math.Abs(col[i] - col[j])
		}), nil
	case dataset.Categorical:
		col, err := all.StringCol(attr)
		if err != nil {
			return nil, err
		}
		return dissim.FromLocal(n, func(i, j int) float64 {
			if col[i] == col[j] {
				return 0
			}
			return 1
		}), nil
	case dataset.Alphanumeric:
		col, err := all.SymbolCol(attr)
		if err != nil {
			return nil, err
		}
		return dissim.FromLocal(n, func(i, j int) float64 {
			return float64(editdist.Distance(col[i], col[j]))
		}), nil
	case dataset.Ordered:
		col, err := all.RanksCol(attr)
		if err != nil {
			return nil, err
		}
		return dissim.FromLocal(n, func(i, j int) float64 {
			return math.Abs(col[i] - col[j])
		}), nil
	case dataset.Hierarchical:
		col, err := all.StringCol(attr)
		if err != nil {
			return nil, err
		}
		tax := a.Taxonomy
		var derr error
		m := dissim.FromLocal(n, func(i, j int) float64 {
			d, err := tax.Distance(col[i], col[j])
			if err != nil && derr == nil {
				derr = err
			}
			return d
		})
		if derr != nil {
			return nil, derr
		}
		return m, nil
	default:
		return nil, fmt.Errorf("party: centralized baseline cannot handle attribute %q of type %v", a.Name, a.Type)
	}
}

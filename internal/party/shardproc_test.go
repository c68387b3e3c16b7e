package party

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"ppclust/internal/keys"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// shardWorkerPool runs N in-process ShardServers over real localhost TCP —
// the worker half of the cross-process protocol without the subprocess
// spawn (internal/proctest covers real processes). The address registry is
// mutable so tests can retarget a shard's dials mid-session (worker
// restart) and conduit hooks can inject link faults on the coordinator's
// side of a dial.
type shardWorkerPool struct {
	t       testing.TB
	mu      sync.Mutex
	addrs   map[int]string
	servers []*ShardServer
}

func newShardWorkerPool(t testing.TB, shards int, cfg ShardServerConfig) *shardWorkerPool {
	t.Helper()
	p := &shardWorkerPool{t: t, addrs: make(map[int]string)}
	for s := 0; s < shards; s++ {
		p.setAddr(s, p.startWorker(cfg))
	}
	t.Cleanup(p.close)
	return p
}

// startWorker boots one ShardServer on its own listener and returns its
// address. The server is torn down with the pool.
func (p *shardWorkerPool) startWorker(cfg ShardServerConfig) string {
	p.t.Helper()
	srv, err := NewShardServer(cfg)
	if err != nil {
		p.t.Fatalf("shard server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.t.Fatalf("shard listener: %v", err)
	}
	go srv.Serve(ln)
	p.mu.Lock()
	p.servers = append(p.servers, srv)
	p.mu.Unlock()
	return ln.Addr().String()
}

func (p *shardWorkerPool) setAddr(shard int, addr string) {
	p.mu.Lock()
	p.addrs[shard] = addr
	p.mu.Unlock()
}

func (p *shardWorkerPool) close() {
	p.mu.Lock()
	servers := p.servers
	p.servers = nil
	p.mu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
}

// dialer builds the ShardDialFunc a deployment's coordinator would use:
// TCP dial, v4 shard-registration hello with the resume state, watermark
// grant, pooled conduit. wrap, when non-nil, decorates each returned
// conduit (keyed by shard and the per-shard dial ordinal) — the hook tests
// use to flap or cut a worker link.
func (p *shardWorkerPool) dialer(session string, wrap func(shard, dial int, c wire.Conduit) wire.Conduit) ShardDialFunc {
	dials := make(map[int]int)
	var mu sync.Mutex
	return func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		p.mu.Lock()
		addr := p.addrs[shard]
		p.mu.Unlock()
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, ResumeGrant{}, err
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, TPName, session, shard,
			state.Epoch, state.Sent, state.Recv, 5*time.Second); err != nil {
			conn.Close()
			return nil, ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, 5*time.Second)
		if err != nil {
			conn.Close()
			return nil, ResumeGrant{}, err
		}
		c := wire.Conduit(wire.TCPPooled(conn))
		if wrap != nil {
			mu.Lock()
			n := dials[shard]
			dials[shard] = n + 1
			mu.Unlock()
			c = wrap(shard, n, c)
		}
		return c, ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// TestShardProcMatchesInProcess is the cross-process differential pin: at
// K=2 and K=4, with the shard pipelines in ShardServer workers on the far
// side of real TCP links, the session must publish reports bit-identical
// to the in-process sharded path and the phase-serial single-TP reference.
func TestShardProcMatchesInProcess(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialRef(base, parts, reqs, deterministicRandom(41), nil)
	if err != nil {
		t.Fatalf("single-TP baseline: %v", err)
	}
	for _, k := range []int{2, 4} {
		for _, workers := range []int{1, 0} {
			inproc := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers, TPShards: k}
			oracle, err := RunInMemory(inproc, parts, reqs, deterministicRandom(41))
			if err != nil {
				t.Fatalf("shards=%d workers=%d in-process oracle: %v", k, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("in-process shards=%d workers=%d", k, workers), want, oracle)

			pool := newShardWorkerPool(t, k, ShardServerConfig{Schema: pipelineSchema()})
			cfg := inproc
			cfg.ShardDial = pool.dialer(fmt.Sprintf("proc-%d-%d", k, workers), nil)
			got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(41))
			if err != nil {
				t.Fatalf("shards=%d workers=%d cross-process: %v", k, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("cross-process shards=%d workers=%d", k, workers), want, got)
			pool.close()
		}
	}
}

// TestShardProcMoreShardsThanRows: with more shard workers than triangle
// rows only the active ranges are dialed — the surplus workers see no
// registration at all — and the report stays bit-identical.
func TestShardProcMoreShardsThanRows(t *testing.T) {
	parts := pipelineParts(t, 1) // holders of 1, 2 and 3 rows: 6 triangle rows
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialRef(base, parts, nil, deterministicRandom(42), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool := newShardWorkerPool(t, 8, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 8}
	cfg.ShardDial = pool.dialer("proc-degenerate", nil)
	got, err := RunInMemory(cfg, parts, nil, deterministicRandom(42))
	if err != nil {
		t.Fatalf("shards=8 over 6 rows: %v", err)
	}
	assertSameOutcome(t, "shards=8 over 6 rows", want, got)
}

// TestChaosShardProcLinkFlapResumes pins worker-link self-healing: the
// coordinator's link to one worker flaps mid-relay, the redial re-registers
// (superseding the worker's half-fed run), the Reconn replays the entire
// stream from frame one, and the fresh run recomputes — the report stays
// bit-identical to the fault-free cross-process session. Frame 2 on the
// worker link is the slice offer; later ordinals land mid relay.
func TestChaosShardProcLinkFlapResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialRef(base, parts, reqs, deterministicRandom(43), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, frame := range []int{2, 5, 9} {
		pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
			ResumeWindow: 10 * time.Second}
		cfg.ShardDial = pool.dialer(fmt.Sprintf("proc-flap-%d", frame),
			func(shard, dial int, c wire.Conduit) wire.Conduit {
				if shard == 1 && dial == 0 {
					return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: frame})
				}
				return c
			})
		got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(43))
		if err != nil {
			t.Fatalf("flap at frame %d: %v", frame, err)
		}
		assertSameOutcome(t, fmt.Sprintf("worker link flap at frame %d", frame), want, got)
		pool.close()
	}
}

// TestChaosShardProcWorkerRestartResumes is the process-death shape at the
// package level: shard 0's worker link is severed abruptly mid-relay (a
// crash sends no abort frame — unlike a graceful drain), the address
// registry is retargeted to a freshly booted worker, and the coordinator's
// redial loop re-registers there. The replacement recomputes the slice
// from the replayed stream and the report stays bit-identical.
func TestChaosShardProcWorkerRestartResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialRef(base, parts, reqs, deterministicRandom(44), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second}
	cfg.ShardDial = pool.dialer("proc-restart",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				// Stand the replacement up before the cut lands so the
				// redial dials the new process, exactly as a pool manager
				// restarting a crashed worker.
				pool.setAddr(0, pool.startWorker(ShardServerConfig{Schema: pipelineSchema()}))
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 6})
			}
			return c
		})
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(44))
	if err != nil {
		t.Fatalf("restarted-worker session: %v", err)
	}
	assertSameOutcome(t, "worker restart", want, got)
}

// TestChaosShardProcKillOutsideWindow: without a reconnect window a severed
// worker link fails the session promptly and classified — ErrDisconnected
// (or the peers' ErrAborted view), never a hang — and leaves no goroutine
// behind in the coordinator.
func TestChaosShardProcKillOutsideWindow(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := chaosConfig()
	cfg.TPShards = 2
	cfg.ShardDial = pool.dialer("proc-kill",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 1 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 4})
			}
			return c
		})
	out, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(), deterministicRandom(45), nil)
	if err == nil {
		t.Fatalf("cut worker link: session succeeded, outcome %v", out)
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("cut worker link: unclassified error: %v", err)
	}
}

// TestChaosShardProcRedialRefusedFatal: a redial answered with a typed
// fatal refusal (ErrResumeAborted from the control plane) must end the
// degraded session classified ErrDisconnected without burning the window.
func TestChaosShardProcRedialRefusedFatal(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	inner := pool.dialer("proc-refuse",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 3})
			}
			return c
		})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second, SessionTimeout: time.Minute}
	cfg.ShardDial = func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		if state.Epoch > 0 {
			return nil, ResumeGrant{}, fmt.Errorf("pool: %w", ErrResumeAborted)
		}
		return inner(ctx, shard, state)
	}
	start := time.Now()
	_, err := RunInMemory(cfg, parts, pipelineReqs(), deterministicRandom(46))
	if err == nil {
		t.Fatal("refused redial: session succeeded")
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) {
		t.Fatalf("refused redial: unclassified error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("refused redial burned the window: took %v", elapsed)
	}
}

// TestShardProcDrainingWorkerRejects: a draining worker answers
// registrations with a typed netid rejection, so a session dialing it
// fails instead of hanging.
func TestShardProcDrainingWorkerRejects(t *testing.T) {
	srv, err := NewShardServer(ShardServerConfig{Schema: pipelineSchema()})
	if err != nil {
		t.Fatalf("shard server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listener: %v", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	addr := ln.Addr().String()

	// A live worker rejects a legacy (non-registration) hello by version.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := netid.AnnounceResume(conn, TPName, "s", 0, 1, 0, 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	_, _, err = netid.AwaitResumeGrant(conn, 5*time.Second)
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
		t.Fatalf("v3 hello to a shard worker: want RejectVersion, got %v", err)
	}
	conn.Close()

	srv.Close()
	<-serveDone

	// Close unblocked Serve; the listener is gone, so a draining worker is
	// simply unreachable (the pre-close drain rejection is raced by the
	// listener teardown and not separately observable here).
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}

// TestShardSliceDedup drives the collector's duplicate-slice guard
// directly: a restarted worker resends every slice after the replay, and
// the first install must win with no double count.
func TestShardSliceDedup(t *testing.T) {
	schema := pipelineSchema()
	cfg, err := Config{Schema: schema, Variant: Float64Variant}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tp := &ThirdParty{cfg: cfg, guard: newGuard(TPName, cfg)}
	defer tp.guard.release()
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	link := &shardLink{s: 0, ep: wire.NewEndpoint(a)}
	peer := wire.NewEndpoint(b)

	var comp []int
	for attr, at := range schema.Attrs {
		if !tagBased(at.Type) {
			comp = append(comp, attr)
		}
	}
	if len(comp) < 2 {
		t.Fatalf("pipeline schema has %d comparison attributes, need 2+", len(comp))
	}
	go func() {
		send := func(attr int, cells []float64, max float64) {
			peer.SendBody(wire.Message{From: ShardName(0), To: TPName, Kind: kindShardSlice, Attr: attr},
				shardSliceBody{Attr: attr, Cells: cells, Max: max})
		}
		// Heartbeats interleave; the first generation delivers attr comp[0],
		// then the "restarted" worker resends it with different bytes before
		// completing the set — the duplicate must be ignored.
		peer.SendBody(wire.Message{From: ShardName(0), To: TPName, Kind: kindShardBeat, Attr: -1}, shardBeatBody{})
		send(comp[0], []float64{1, 2, 3}, 3)
		send(comp[0], []float64{9, 9, 9}, 9)
		for _, attr := range comp[1:] {
			send(attr, []float64{4}, 4)
		}
	}()
	out := make([][]float64, len(schema.Attrs))
	if err := tp.collectShardSlices(0, link, out); err != nil {
		t.Fatalf("collect: %v", err)
	}
	if got := out[comp[0]]; len(got) != 3 || got[0] != 1 {
		t.Fatalf("duplicate slice overwrote the first install: %+v", got)
	}
}

// TestShardOfferValidation exercises the worker's offer hygiene: a
// mismatched schema fingerprint, a shard index disagreeing with the
// registration, a range outside the census, a slice too large for its
// frame and a census whose total overflows must all be refused as aborts
// on the coordinator's link, not computed — and the hostile offers must
// leave the worker process serving: the same ShardServer then runs both
// shards of a valid session.
func TestShardOfferValidation(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	dial := pool.dialer("offer-validation", nil)
	nAttr := len(pipelineSchema().Attrs)

	for _, tc := range []struct {
		name   string
		mutate func(*shardOfferBody)
	}{
		{"fingerprint", func(o *shardOfferBody) { o.Fingerprint = "bogus" }},
		{"shard-index", func(o *shardOfferBody) { o.Shard = 3 }},
		{"range", func(o *shardOfferBody) { o.Hi = 1 << 30 }},
		{"seed-shape", func(o *shardOfferBody) { o.Seeds = o.Seeds[:1] }},
		{"count-shape", func(o *shardOfferBody) { o.Counts = o.Counts[:1] }},
		// 3·10⁹ rows: sizing the slice or its lane schedules from this
		// offer would crash or exhaust the worker process.
		{"oversized-slice", func(o *shardOfferBody) {
			o.Counts = []int{1_500_000_000, 1_500_000_000}
			o.Hi = 3_000_000_000
		}},
		// The counts wrap int to a total of 3, which the range fits.
		{"census-overflow", func(o *shardOfferBody) {
			o.Holders = []string{"A", "B", "C"}
			o.Counts = []int{math.MaxInt, math.MaxInt, 5}
			o.Seeds = make([][]rng.Seed, nAttr)
			for attr := range o.Seeds {
				o.Seeds[attr] = make([]rng.Seed, 3)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
				guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
			tp.cfg.ShardDial = dial
			var idErr error
			tp.identity, idErr = keys.NewIdentity(TPName, rand.Reader)
			if idErr != nil {
				t.Fatal(idErr)
			}
			defer tp.guard.release()
			link, err := tp.dialShard(0)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer link.close()
			offer := shardOfferBody{
				Shard: 0, Lo: 0, Hi: 3,
				Holders:     tp.holders,
				Counts:      tp.counts,
				Fingerprint: schemaFingerprint(cfg.Schema),
				Variant:     cfg.Variant,
				RNG:         cfg.RNG,
				Seeds:       tp.pairSeeds(),
			}
			tc.mutate(&offer)
			if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
				t.Fatalf("send offer: %v", err)
			}
			m, err := link.ep.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if m.Kind != kindAbort {
				t.Fatalf("want an abort for a %s-mutated offer, got %q", tc.name, m.Kind)
			}
		})
	}

	// Both shards of a valid session register on the one surviving worker.
	parts := pipelineParts(t, 4)
	want, err := RunInMemory(Config{Schema: pipelineSchema(), Variant: Float64Variant}, parts, nil, deterministicRandom(45))
	if err != nil {
		t.Fatalf("single-TP reference: %v", err)
	}
	pool.mu.Lock()
	addr := pool.addrs[0]
	pool.mu.Unlock()
	pool.setAddr(1, addr)
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ShardDial: pool.dialer("after-hostile-offers", nil)}
	got, err := RunInMemory(cfg, parts, nil, deterministicRandom(45))
	if err != nil {
		t.Fatalf("valid session after hostile offers: %v", err)
	}
	assertSameOutcome(t, "valid session after hostile offers", want, got)
}

// TestShardServerKeepsNewerRegistration: a registration whose handshake
// completes after the coordinator's redial of the same shard (an older
// epoch arriving late) must not supersede the newer run — the stale link
// is closed and the newer run stays registered.
func TestShardServerKeepsNewerRegistration(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	srv := pool.servers[0]
	dial := pool.dialer("stale-epoch", nil)
	cfg, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tp := &ThirdParty{cfg: cfg, guard: newGuard(TPName, cfg)}
	defer tp.guard.release()
	if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
		t.Fatal(err)
	}
	register := func(epoch uint32) wire.Conduit {
		raw, _, err := dial(context.Background(), 0, ResumeState{Epoch: epoch})
		if err != nil {
			t.Fatalf("dial epoch %d: %v", epoch, err)
		}
		sec, err := tp.shardSecure(0, raw)
		if err != nil {
			t.Fatalf("handshake epoch %d: %v", epoch, err)
		}
		t.Cleanup(func() { sec.Close() })
		return sec
	}
	key := shardRunKey{session: "stale-epoch", shard: 0}
	registered := func() uint32 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if r := srv.runs[key]; r != nil {
			return r.epoch
		}
		return 0
	}
	register(1)
	for deadline := time.Now().Add(5 * time.Second); registered() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("epoch 1 never registered")
		}
	}
	stale := register(0)
	closed := make(chan error, 1)
	go func() {
		_, err := stale.Recv()
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("stale epoch-0 registration received a frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale epoch-0 registration kept its link")
	}
	if got := registered(); got != 1 {
		t.Fatalf("registered run has epoch %d after the stale registration, want 1", got)
	}
}

// TestCheckSliceRange pins the slice-size predicate the coordinator applies
// before dialing and the worker before sizing anything: ranges outside
// the census and slices past one frame are refused, overflow included,
// and the coordinator refuses before its first dial.
func TestCheckSliceRange(t *testing.T) {
	for _, tc := range []struct {
		lo, hi, total int
		ok            bool
	}{
		{0, 0, 0, true},
		{0, 1200, 1200, true},
		{600, 1200, 1200, true},
		{-1, 3, 4, false},
		{3, 2, 4, false},
		{0, 5, 4, false},
		{0, 8192, 8192, true},                    // 33,550,336 cells: at most maxSliceCells
		{0, 8193, 8193, false},                   // 33,558,528 cells: over it
		{0, 3_000_000_000, 3_000_000_000, false}, // the oversized offer
		{math.MaxInt - 1, math.MaxInt, math.MaxInt, false},
	} {
		if err := checkSliceRange(tc.lo, tc.hi, tc.total); (err == nil) != tc.ok {
			t.Errorf("checkSliceRange(%d, %d, %d) = %v, want ok=%v", tc.lo, tc.hi, tc.total, err, tc.ok)
		}
	}
	if _, _, err := censusLayout([]int{math.MaxInt, math.MaxInt, 5}); err == nil {
		t.Error("census total overflow accepted")
	}
	// The coordinator refuses an oversized partition before dialing.
	tp := &ThirdParty{cfg: Config{ShardDial: func(context.Context, int, ResumeState) (wire.Conduit, ResumeGrant, error) {
		t.Fatal("coordinator dialed a worker for an oversized slice")
		return nil, ResumeGrant{}, nil
	}}}
	if _, err := tp.startRemoteShards(&assembly{}, nil, [][2]int{{0, 2_000_000_000}, {2_000_000_000, 3_000_000_000}},
		[]int{0, 1_500_000_000}, 3_000_000_000, nil); err == nil {
		t.Error("coordinator accepted an oversized shard range")
	}
	if _, _, err := censusLayout([]int{3, -1}); err == nil {
		t.Error("negative census count accepted")
	}
}

// benchShardProcSession runs one full session whose K shard pipelines
// live behind the cross-process control protocol — real localhost TCP,
// v4 registration, AES-GCM worker links — against in-process
// ShardServers (the protocol cost without subprocess spawn noise).
func benchShardProcSession(b *testing.B, k int) {
	parts := pairCapParts(b, 400, 400)
	pool := newShardWorkerPool(b, k, ShardServerConfig{Schema: parts[0].Table.Schema()})
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: k}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg
		run.ShardDial = pool.dialer(fmt.Sprintf("bench-%d", i), nil)
		if _, err := RunInMemory(run, parts, nil, deterministicRandom(28)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionShardProc is the session-shardproc family's in-tree
// smoke variant (CI runs it at -benchtime=1x): the sharded session with
// its shard pipelines behind worker processes' wire protocol at K 2 and
// 4, against the in-process K = 2 sharded path as the overhead baseline.
func BenchmarkSessionShardProc(b *testing.B) {
	b.Run("inproc-2", func(b *testing.B) {
		parts := pairCapParts(b, 400, 400)
		cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: 2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunInMemory(cfg, parts, nil, deterministicRandom(28)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{2, 4} {
		k := k
		b.Run(fmt.Sprintf("workers-%d", k), func(b *testing.B) { benchShardProcSession(b, k) })
	}
}

package party

// Cross-process TP shards: the coordinator side.
//
// With Config.ShardDial set and TPShards > 1, the shard pipelines run in
// separate ppc-shard worker processes (shardserver.go) instead of
// goroutines, and this file is the coordinator's half of the
// coordinator↔shard control protocol:
//
//	coordinator                                 worker
//	    │  netid v4 shard-registration hello       │
//	    │──────────────────────────────────────────▶
//	    ◀──────────────────────────────────────────│  grant (0, 0)
//	    │  hello (X25519) ⇄ hello, then AES-GCM    │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-offer (range+census+seeds)    │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-frame (relayed holder bytes)  │
//	    │──────────────────────────────────────────▶   ◀─ ppc/shard-heartbeat
//	    ◀──────────────────────────────────────────│  ppc/shard-slice × attrs
//	    │  ppc/shard-done                          │
//	    │──────────────────────────────────────────▶
//
// The coordinator keeps the secured holder→shard conduits from the
// handshake and relays every frame, byte for byte, to the owning worker
// (one pump per (shard, holder) lane with the shared laneQuotas stream
// length). The worker feeds the bytes through an identical demux,
// so the shard pipeline reads the exact stream an in-process shard would —
// bit-identity across deployments is code identity, not re-derivation.
//
// Failure and healing: worker links are plain conduits when ResumeWindow
// is 0 (a severed worker fails the session, classified under
// ErrDisconnected) and Reconn-wrapped otherwise. A worker is always a
// fresh process for a given registration — it grants watermarks (0, 0)
// and the coordinator rebinds with peerRecv 0, so the Reconn's replay
// cursor never advances and a rebind replays the offer and every relayed
// frame from the beginning. The replacement worker recomputes the slice
// from scratch; the coordinator drops duplicate slices (first install
// wins — the generations are bit-identical). This trades replay-cache
// memory (the coordinator retains the shard's full relayed stream for
// the session's lifetime when ResumeWindow > 0) for healing that covers
// both process crashes and link flaps with one mechanism. Aborts
// propagate in both directions as kindAbort, exactly as on holder lanes.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppclust/internal/keys"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// ShardDialFunc establishes the coordinator's transport to shard worker s.
// It performs the shard registration (netid.AnnounceShardRegistration with
// the given resume state; epoch 0 on first contact) and returns the raw
// conduit plus the worker's watermark grant, which is always (0, 0) — a
// worker is always fresh. Errors wrapping ErrResumeStale, ErrResumeAborted
// or ErrResumeUnknown (for example a mapped netid rejection) are fatal to
// the session; any other error is retried with capped backoff until the
// reconnect window expires.
type ShardDialFunc func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error)

// shardDoneGrace bounds the courtesy ppc/shard-done send at session end: a
// worker that died after delivering its slices would park the send in the
// Reconn, and the session must not wait on a corpse to publish results.
const shardDoneGrace = 250 * time.Millisecond

// shardLink is the coordinator's control link to one worker process.
type shardLink struct {
	s  int
	ep *wire.Endpoint
	rc *wire.Reconn // nil when ResumeWindow is 0

	// mu serializes senders — the offer, the per-holder relay pumps and
	// the done frame share one conduit, and Endpoint.Send is not
	// concurrency-safe.
	mu sync.Mutex
}

func (l *shardLink) send(m wire.Message, body any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ep.SendBody(m, body)
}

// close severs the link. Closing the Reconn (not just the endpoint) is
// terminal: parked senders and receivers unpark with ErrClosed and the
// redial loop, if running, exits.
func (l *shardLink) close() {
	if l.rc != nil {
		l.rc.Close()
		return
	}
	l.ep.Close()
}

// shutdown ends a worker's run cleanly: a best-effort done frame bounded
// by shardDoneGrace, then the link closes.
func (l *shardLink) shutdown() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = l.send(wire.Message{From: TPName, To: ShardName(l.s), Kind: kindShardDone, Attr: -1}, shardDoneBody{})
	}()
	select {
	case <-done:
	case <-time.After(shardDoneGrace):
	}
	l.close()
}

// shardSecure runs the coordinator side of the worker-link handshake over
// a fresh raw transport: lifecycle binding, X25519 hello exchange, then
// AES-GCM under the derived channel key. The worker generates a fresh
// identity per connection, so every (re)dial derives a fresh key and
// nonce sequence. Worker links are always encrypted —
// Config.PlaintextChannels governs only the holder conduits, whose
// protection the parties agree on before any payload moves; a worker
// link's configuration rides the link itself, so it never starts plain.
func (tp *ThirdParty) shardSecure(s int, raw wire.Conduit) (wire.Conduit, error) {
	name := ShardName(s)
	bound := tp.guard.bind(raw)
	ep := wire.NewEndpoint(bound)
	fp := schemaFingerprint(tp.cfg.Schema)
	hello := helloBody{Public: tp.identity.PublicBytes(), Fingerprint: fp}
	if err := ep.SendBody(wire.Message{From: TPName, To: name, Kind: kindHello, Attr: -1}, hello); err != nil {
		return nil, err
	}
	var peer helloBody
	if _, err := expectMsg(ep, kindHello, &peer); err != nil {
		return nil, fmt.Errorf("party: hello from shard worker %d: %w", s, err)
	}
	if peer.Fingerprint != fp {
		return nil, fmt.Errorf("party: shard worker %d disagrees on the schema", s)
	}
	master, err := tp.identity.Master(peer.Public)
	if err != nil {
		return nil, err
	}
	key := keys.DeriveKey(master, keys.PurposeChannel, TPName, name)
	return wire.Secure(bound, key, true)
}

// dialShard establishes the control link to worker s: registration dial,
// grant check, key agreement, and — when the session is resumable — the
// Reconn wrap with the redial hooks.
func (tp *ThirdParty) dialShard(s int) (*shardLink, error) {
	raw, grant, err := tp.cfg.ShardDial(tp.guard.ctx, s, ResumeState{})
	if err != nil {
		return nil, fmt.Errorf("party: dialing shard worker %d: %w", s, err)
	}
	if grant.Sent != 0 || grant.Recv != 0 {
		raw.Close()
		return nil, fmt.Errorf("party: shard worker %d granted watermarks (%d, %d) on first contact, want (0, 0)",
			s, grant.Sent, grant.Recv)
	}
	secured, err := tp.shardSecure(s, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	link := &shardLink{s: s}
	if tp.cfg.ResumeWindow > 0 {
		rc := wire.NewReconn(secured, tp.cfg.ResumeWindow)
		link.rc = rc
		// Run at most one redial loop per link, however down/up cycles
		// interleave (same shape as Holder.armResume).
		var loopMu sync.Mutex
		looping := false
		rc.SetHooks(
			func(cause error) {
				tp.guard.noteDegraded()
				if hook := tp.cfg.OnShardProcDown; hook != nil {
					hook(s, cause)
				}
				loopMu.Lock()
				already := looping
				looping = true
				loopMu.Unlock()
				if already {
					return
				}
				tp.shardRedialLoop(link)
				loopMu.Lock()
				looping = false
				loopMu.Unlock()
			},
			func() {
				tp.guard.noteRestored()
				if hook := tp.cfg.OnShardProcUp; hook != nil {
					hook(s, rc.Epoch())
				}
			},
			func(err error) {
				tp.guard.noteRestored()
				tp.guard.fail(fmt.Errorf("%w: %s: link to shard worker %d degraded past the reconnect window in phase %q: %v",
					ErrSessionTimeout, TPName, s, tp.guard.phaseName(), err))
			},
		)
		// A down Reconn no longer touches its inner conduit, so the guard's
		// cancel must reach the Reconn itself: a session failure then
		// unparks the link's senders and receivers instead of leaving them
		// for the reconnect window.
		link.ep = wire.NewEndpoint(tp.guard.bind(rc))
	} else {
		link.ep = wire.NewEndpoint(secured)
	}
	if hook := tp.cfg.OnShardProcUp; hook != nil {
		hook(s, 0)
	}
	return link, nil
}

// shardRedialLoop re-establishes a severed worker link: dial a replacement
// (the pool restarts dead workers; a surviving worker discards its old run
// on re-registration), redo the key agreement, and rebind the Reconn with
// peerRecv 0 so the full cached stream replays into the fresh worker. The
// loop runs on the Reconn's down-hook goroutine and retries with capped
// backoff until it succeeds, the window expires, or the session ends.
func (tp *ThirdParty) shardRedialLoop(link *shardLink) {
	rc := link.rc
	backoff := resumeBackoffMin
	for attempt := uint32(0); ; attempt++ {
		select {
		case <-rc.Failed():
			return
		case <-tp.guard.ctx.Done():
			return
		default:
		}
		if _, _, down := rc.State(); !down {
			return
		}
		epoch := rc.Epoch() + 1 + attempt
		raw, grant, err := tp.cfg.ShardDial(tp.guard.ctx, link.s, ResumeState{Epoch: epoch})
		if err != nil {
			if errors.Is(err, ErrResumeStale) || errors.Is(err, ErrResumeAborted) ||
				errors.Is(err, ErrResumeUnknown) || tp.guard.ctx.Err() != nil {
				tp.guard.fail(fmt.Errorf("%w: %s: redial of shard worker %d refused: %v",
					ErrDisconnected, TPName, link.s, err))
				return
			}
			if !waitBackoff(tp.guard, rc, backoff) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		if grant.Sent != 0 || grant.Recv != 0 {
			// Not the fresh worker this protocol expects; a process with
			// retained watermarks cannot be reconciled with a full replay.
			raw.Close()
			tp.guard.fail(fmt.Errorf("%w: %s: shard worker %d granted watermarks (%d, %d) on redial, want (0, 0)",
				ErrDisconnected, TPName, link.s, grant.Sent, grant.Recv))
			return
		}
		secured, err := tp.shardSecure(link.s, raw)
		if err != nil {
			raw.Close()
			if !waitBackoff(tp.guard, rc, backoff) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		if err := rc.Rebind(secured, 0, epoch); err != nil {
			secured.Close()
			if !waitBackoff(tp.guard, rc, backoff) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		return
	}
}

// startRemoteShards is the worker-process slice producer: it dials one
// worker per active range (none for surplus shards), hands each its slice
// offer, and starts the relay pumps and slice collectors on asm. The
// returned settle ends the workers' runs after a clean assembly.
func (tp *ThirdParty) startRemoteShards(asm *assembly, core *shardCore, ranges [][2]int, offsets []int, total int, slices [][][]float64) (settle func(), err error) {
	// A slice too large for its frame is refused here, before any worker
	// is dialed — the worker would refuse the offer anyway.
	for s, r := range ranges {
		if err := checkSliceRange(r[0], r[1], total); err != nil {
			return nil, fmt.Errorf("party: shard %d: %w", s, err)
		}
	}
	links := make([]*shardLink, len(ranges))
	closeLinks := func() {
		for _, l := range links {
			if l != nil {
				l.close()
			}
		}
	}
	// Unparks slice collectors and relay sends; pumps parked in a
	// holder-conduit Recv unwind when the session guard tears the bound
	// transports down.
	asm.onFail(closeLinks)

	// Dial the workers and hand each its slice.
	seeds := tp.pairSeeds()
	fp := schemaFingerprint(tp.cfg.Schema)
	for s, r := range ranges {
		link, err := tp.dialShard(s)
		if err != nil {
			closeLinks()
			return nil, err
		}
		links[s] = link
		offer := shardOfferBody{
			Shard: s, Lo: r[0], Hi: r[1],
			Holders:     tp.holders,
			Counts:      tp.counts,
			Fingerprint: fp,
			Mode:        tp.cfg.Mode, Variant: tp.cfg.Variant, RNG: tp.cfg.RNG,
			IntParams: tp.cfg.IntParams, FloatParams: tp.cfg.FloatParams,
			LocalChunkBytes: tp.cfg.LocalChunkBytes,
			Parallelism:     tp.cfg.Parallelism,
			Seeds:           seeds,
		}
		if err := link.send(wire.Message{From: TPName, To: ShardName(s), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
			closeLinks()
			return nil, fmt.Errorf("party: offering slice to shard worker %d: %w", s, err)
		}
	}

	// Relay pumps: one per (shard, holder) lane with a non-zero quota,
	// copying exactly the lane's scheduled frame count. Pumps are not part
	// of the session-gating assembly — a pump parked in a holder Recv
	// when some other component fails unwinds at guard teardown, exactly
	// like a demux reader; on the clean path every pump has drained its
	// quota by the time the collectors finish, so settle's join is
	// immediate.
	var pumpWg sync.WaitGroup
	for s, r := range ranges {
		for hi := range tp.holders {
			quota := 0
			for _, q := range core.laneQuotas(offsets, hi, r) {
				quota += q
			}
			if quota == 0 {
				continue
			}
			pumpWg.Add(1)
			go func(src wire.Conduit, link *shardLink) {
				defer pumpWg.Done()
				for i := 0; i < quota; i++ {
					frame, err := src.Recv()
					if err != nil {
						asm.fail(fmt.Errorf("party: relaying %s frames to shard worker %d: %w", tp.holders[hi], s, err))
						return
					}
					m := wire.Message{From: TPName, To: ShardName(s), Kind: kindShardFrame, Attr: hi}
					if err := link.send(m, shardFrameBody{Frame: frame}); err != nil {
						asm.fail(fmt.Errorf("party: relaying %s frames to shard worker %d: %w", tp.holders[hi], s, err))
						return
					}
				}
			}(tp.shardConduits[s][tp.holders[hi]], links[s])
		}
	}

	for s := range ranges {
		asm.spawn(func() {
			if err := tp.collectShardSlices(s, links[s], slices[s]); err != nil {
				asm.fail(err)
			}
		})
	}
	// Clean hand-off: end each worker's run and drop the links before
	// publishing — the workers are not session peers and hold no results.
	return func() {
		pumpWg.Wait()
		for _, link := range links {
			link.shutdown()
		}
	}, nil
}

// collectShardSlices drains worker s's control stream until every
// comparison attribute's slice has landed in out. Duplicate slices — a
// restarted worker recomputes and resends everything after the replay —
// are dropped on arrival: the generations are bit-identical, so the first
// install wins and the merge below never sees a double.
func (tp *ThirdParty) collectShardSlices(s int, link *shardLink, out [][]float64) error {
	attrs := tp.cfg.Schema.Attrs
	need := 0
	for _, a := range attrs {
		if !tagBased(a.Type) {
			need++
		}
	}
	got := make([]bool, len(attrs))
	for need > 0 {
		m, err := link.ep.Recv()
		if err != nil {
			return fmt.Errorf("party: shard worker %d: %w", s, err)
		}
		switch m.Kind {
		case kindShardBeat:
			// Liveness only; the bound transport already fed the watchdog.
		case kindAbort:
			return peerAbortError(m)
		case kindShardSlice:
			var body shardSliceBody
			if err := wire.DecodeBody(m.Payload, &body); err != nil {
				return fmt.Errorf("party: slice from shard worker %d: %w", s, err)
			}
			if body.Attr < 0 || body.Attr >= len(attrs) || tagBased(attrs[body.Attr].Type) {
				return fmt.Errorf("party: shard worker %d sent a slice for attribute %d", s, body.Attr)
			}
			if got[body.Attr] {
				continue
			}
			got[body.Attr] = true
			out[body.Attr] = body.Cells
			need--
		default:
			return fmt.Errorf("party: unexpected %q from shard worker %d", m.Kind, s)
		}
	}
	return nil
}

// pairSeeds materializes the offer's seed table: every (attribute, pair)
// mask-stream seed, pairs in sortedPairs order.
func (tp *ThirdParty) pairSeeds() [][]rng.Seed {
	pairs := sortedPairs(tp.holders)
	out := make([][]rng.Seed, len(tp.cfg.Schema.Attrs))
	for attr := range out {
		out[attr] = make([]rng.Seed, len(pairs))
		for pi, p := range pairs {
			out[attr][pi] = tp.seedJT(attr, tp.holders[p[0]], tp.holders[p[1]])
		}
	}
	return out
}

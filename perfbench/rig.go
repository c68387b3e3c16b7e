package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/server"
	"ppclust/internal/wire"
)

// sessionTimeout fails a wedged session instead of hanging the run; a
// session that hits it counts as failed.
const sessionTimeout = 60 * time.Second

// rig is one set-up workload: its inputs, and the server or shard
// workers its sessions run against.
type rig struct {
	w      *workload
	seed   uint64
	parts  []dataset.Partition
	cfg    party.Config
	random party.RandomSource
	rec    *recorder
	links  atomic.Uint64

	// inject, when set, wraps every conduit end innermost; the self-test
	// uses it to cut a session.
	inject party.ConduitWrap

	mgr     *server.Manager
	reports sync.Map // session ID → chan completion, for sessions that asked

	workers  []*party.ShardServer
	addrs    []string
	serveErr chan error
}

type completion struct {
	report *party.TPReport
	err    error
}

// sessionOut is what one session produced and put on the wire.
type sessionOut struct {
	results map[string]*party.Result
	report  *party.TPReport
	wire    uint64
}

func newRig(w *workload, seed uint64, rec *recorder) (*rig, error) {
	r := &rig{
		w:      w,
		seed:   seed,
		parts:  w.inputs(seed),
		random: randomFor(seed),
		rec:    rec,
		cfg: party.Config{Schema: w.schema, Variant: party.Float64Variant,
			TPShards: w.shards, SessionTimeout: sessionTimeout},
	}
	if w.tenants {
		clients := clientsFor(w)
		mgr, err := server.New(server.Config{
			Holders: w.holders,
			Session: r.cfg,
			// A finished session's slot frees an instant after its holders
			// return, so a client's next session can briefly overlap it.
			MaxSessions: 2 * clients,
			QueueDepth:  2 * clients,
			Random:      func(string) io.Reader { return r.random(party.TPName) },
			OnComplete: func(id string, rep *party.TPReport, err error) {
				if ch, ok := r.reports.LoadAndDelete(id); ok {
					ch.(chan completion) <- completion{rep, err}
				}
			},
		})
		if err != nil {
			return nil, err
		}
		r.mgr = mgr
	}
	if w.shards > 1 {
		r.serveErr = make(chan error, w.shards)
		for s := 0; s < w.shards; s++ {
			srv, err := party.NewShardServer(party.ShardServerConfig{Schema: w.schema})
			if err != nil {
				r.close()
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				r.close()
				return nil, err
			}
			r.workers = append(r.workers, srv)
			r.addrs = append(r.addrs, ln.Addr().String())
			go func() { r.serveErr <- srv.Serve(ln) }()
		}
	}
	return r, nil
}

// close stops the server and the shard workers and waits for them.
func (r *rig) close() {
	if r.mgr != nil {
		r.mgr.Close()
	}
	for _, srv := range r.workers {
		srv.Close()
	}
	for range r.workers {
		<-r.serveErr
	}
	r.workers = nil
}

func clientsFor(w *workload) int {
	if w.tenants {
		return gomaxprocs()
	}
	return 1
}

// tpSide reports whether a party name is the third party or one of its
// shards.
func tpSide(name string) bool {
	return name == party.TPName || strings.HasPrefix(name, party.TPName+"#")
}

// wrap decorates one conduit end of session sid: the injected fault, the
// WAN link on TP lanes, and a span per frame when tracing.
func (r *rig) wrap(sid int64, owner, peer string, c wire.Conduit) wire.Conduit {
	if r.inject != nil {
		c = r.inject(owner, peer, c)
	}
	if tpSide(owner) || tpSide(peer) {
		c = wire.Link(c, linkDelay, 0, linkRate, r.links.Add(1))
	}
	if r.rec.enabled() {
		send, recv := spanHolderSend, spanHolderRecv
		if tpSide(owner) {
			send, recv = spanTPSend, spanTPRecv
		}
		c = &tracedConduit{inner: c, rec: r.rec, session: sid, sendName: send, recvName: recv,
			lane: party.LinkName(owner, peer)}
	}
	return c
}

// session runs one whole session. wantReport also returns the third
// party's report, which a server session delivers only on completion.
func (r *rig) session(wantReport bool) (*sessionOut, error) {
	sid := r.rec.id()
	start := time.Now()
	var out *sessionOut
	var err error
	if r.w.tenants {
		out, err = r.serverSession(sid, wantReport)
	} else {
		out, err = r.memorySession(sid)
	}
	r.rec.add(sid, 0, sid, "session", start, time.Now())
	return out, err
}

func (r *rig) memorySession(sid int64) (*sessionOut, error) {
	cfg := r.cfg
	var relay wire.Counter
	if r.w.shards > 1 {
		cfg.ShardDial = r.shardDial(sid, &relay)
	}
	wrap := func(owner, peer string, c wire.Conduit) wire.Conduit { return r.wrap(sid, owner, peer, c) }
	o, err := party.RunInMemoryWrapped(cfg, r.parts, r.w.reqs, r.random, wrap)
	if err != nil {
		return nil, err
	}
	var total uint64
	for _, ctr := range o.Traffic {
		b, _ := ctr.Sent()
		total += b
	}
	sent, _ := relay.Sent()
	recv, _ := relay.Received()
	return &sessionOut{results: o.Results, report: o.Report, wire: total + sent + recv}, nil
}

// shardDial reaches shard s's worker over localhost TCP with the v4
// shard registration. The coordinator's end is metered into relay and
// traced as the relay lane.
func (r *rig) shardDial(sid int64, relay *wire.Counter) party.ShardDialFunc {
	session := fmt.Sprintf("perfbench-%d", sid)
	return func(ctx context.Context, shard int, st party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", r.addrs[shard])
		if err != nil {
			return nil, party.ResumeGrant{}, err
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, party.TPName, session, shard,
			st.Epoch, st.Sent, st.Recv, 10*time.Second); err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, 10*time.Second)
		if err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		var c wire.Conduit = wire.TCPPooled(conn)
		if r.rec.enabled() {
			c = &tracedConduit{inner: c, rec: r.rec, session: sid, sendName: spanRelaySend,
				recvName: spanRelayRecv, lane: party.LinkName(party.TPName, party.ShardName(shard))}
		}
		return wire.Meter(c, relay), party.ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// admission is the benchmark-side Responder: a holder starts its session
// only once the manager accepts its connection.
type admission struct {
	rec       *recorder
	sid       int64
	submitted time.Time
	done      chan error
}

func (a *admission) Accept(int) error {
	a.rec.add(a.rec.id(), a.sid, a.sid, "server.admit", a.submitted, time.Now())
	a.done <- nil
	return nil
}

func (a *admission) Reject(code netid.RejectCode, detail string) error {
	a.done <- &netid.RejectedError{Code: code, Detail: detail}
	return nil
}

// serverSession submits one holder connection per roster name to the
// manager with a netid session hello, then runs the holders.
func (r *rig) serverSession(sid int64, wantReport bool) (*sessionOut, error) {
	id := fmt.Sprintf("s%d", sid)
	var done chan completion
	if wantReport {
		done = make(chan completion, 1)
		r.reports.Store(id, done)
	}
	holders := r.w.holders
	var raw []wire.Conduit
	var ctrs []*wire.Counter
	end := func(owner, peer string, c wire.Conduit) wire.Conduit {
		raw = append(raw, c)
		ctr := &wire.Counter{}
		ctrs = append(ctrs, ctr)
		return wire.Meter(r.wrap(sid, owner, peer, c), ctr)
	}
	conduits := map[string]map[string]wire.Conduit{}
	tpEnds := map[string]wire.Conduit{}
	for i, h := range holders {
		conduits[h] = map[string]wire.Conduit{}
		hc, tc := wire.Pipe()
		conduits[h][party.TPName] = end(h, party.TPName, hc)
		tpEnds[h] = end(party.TPName, h, tc)
		for _, p := range holders[:i] {
			a, b := wire.Pipe()
			conduits[p][h] = end(p, h, a)
			conduits[h][p] = end(h, p, b)
		}
	}
	defer func() {
		for _, c := range raw {
			c.Close()
		}
	}()

	adm := map[string]*admission{}
	for _, h := range holders {
		adm[h] = &admission{rec: r.rec, sid: sid, submitted: time.Now(), done: make(chan error, 1)}
		r.mgr.Submit(netid.Hello{Name: h, Session: id, Version: netid.Version}, tpEnds[h], adm[h])
	}

	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	type holderOut struct {
		name string
		res  *party.Result
		err  error
	}
	outs := make(chan holderOut, len(holders))
	for i, p := range r.parts {
		go func(p dataset.Partition, a *admission) {
			select {
			case err := <-a.done:
				if err != nil {
					outs <- holderOut{p.Site, nil, err}
					return
				}
			case <-ctx.Done():
				outs <- holderOut{p.Site, nil, fmt.Errorf("admission: %w", ctx.Err())}
				return
			}
			h, err := party.NewHolder(p.Site, p.Table, holders, r.cfg, r.w.reqs[p.Site], conduits[p.Site], r.random(p.Site))
			if err != nil {
				outs <- holderOut{p.Site, nil, err}
				return
			}
			res, err := h.RunContext(ctx)
			outs <- holderOut{p.Site, res, err}
		}(p, adm[holders[i]])
	}
	out := &sessionOut{results: map[string]*party.Result{}}
	var errs []error
	for range holders {
		o := <-outs
		if o.err != nil {
			errs = append(errs, fmt.Errorf("holder %s: %w", o.name, o.err))
			// Unblock the other holders rather than waiting out a watchdog.
			for _, c := range raw {
				c.Close()
			}
			continue
		}
		out.results[o.name] = o.res
	}
	if len(errs) > 0 {
		if done != nil {
			r.reports.Delete(id)
		}
		return nil, errors.Join(errs...)
	}
	for _, ctr := range ctrs {
		b, _ := ctr.Sent()
		out.wire += b
	}
	if done != nil {
		select {
		case c := <-done:
			if c.err != nil {
				return nil, fmt.Errorf("third party: %w", c.err)
			}
			out.report = c.report
		case <-ctx.Done():
			r.reports.Delete(id)
			return nil, fmt.Errorf("waiting for the report: %w", ctx.Err())
		}
	}
	return out, nil
}

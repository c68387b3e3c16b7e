package ppclust_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ppclust"
	"ppclust/internal/netid"
)

// tcpResumeOpts is the session agreement for the resume facade test: small
// chunks so the tiny dataset still streams many frames, and a reconnect
// window wide enough that a redial always lands inside it.
func tcpResumeOpts() ppclust.Options {
	return ppclust.Options{
		Random:           detRandom,
		StreamChunkBytes: 64,
		ReconnectWindow:  10 * time.Second,
	}
}

// bigPartA is a 40-object partition for holder A, large enough that its
// local-matrix stream to the third party runs tens of kilobytes — the
// proxy's byte-counted cut is guaranteed to land mid-stream, after the
// hello and key agreement but long before the stream ends.
func bigPartA(t *testing.T) *ppclust.Table {
	t.Helper()
	a := ppclust.MustNewTable(facadeSchema())
	cities := []string{"izmir", "ankara", "paris"}
	dna := []string{"ACGT", "ACGG", "TTAG", "GGCC"}
	for i := 0; i < 40; i++ {
		a.MustAppendRow(20.0+float64(i), cities[i%3], dna[i%4])
	}
	return a
}

// cutProxy relays the first accepted connection to target and severs both
// sides after cutAfter client-to-target bytes — a mid-stream network
// failure, not a graceful shutdown.
func cutProxy(t *testing.T, target string, cutAfter int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", target)
		if err != nil {
			c.Close()
			return
		}
		go io.Copy(c, up)
		io.CopyN(up, c, cutAfter)
		c.Close()
		up.Close()
	}()
	return ln.Addr().String()
}

// runResumeHolder dials the server (dialAddr may be the cut proxy),
// performs the hello/grant handshake, and runs a resumable holder
// session whose redials go straight to tpAddr.
func runResumeHolder(name, sid, tpAddr, dialAddr string, table *ppclust.Table, peers map[string]net.Conn) (*ppclust.Result, error) {
	c, err := net.Dial("tcp", dialAddr)
	if err != nil {
		return nil, err
	}
	if err := netid.SendHello(c, netid.Hello{Name: name, Session: sid}, 10*time.Second); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := netid.AwaitGrant(c, time.Minute); err != nil {
		c.Close()
		return nil, err
	}
	conns := map[string]net.Conn{ppclust.ThirdPartyName: c}
	for p, pc := range peers {
		conns[p] = pc
	}
	sess, err := ppclust.NewResumableHolderSession(name, table, []string{"A", "B"},
		facadeSchema(), tcpResumeOpts(), ppclust.ClusterRequest{Linkage: ppclust.Average, K: 2},
		conns, sid, func(ctx context.Context) (net.Conn, error) {
			return net.Dial("tcp", tpAddr)
		})
	if err != nil {
		for _, cc := range conns {
			cc.Close()
		}
		return nil, err
	}
	return sess.Run()
}

// TestTCPResumeFacade is the public-API differential over real sockets: the
// same tenant session runs twice against one multi-tenant server — once
// fault-free, once with holder A's connection severed mid-stream by a
// byte-counting proxy and resumed through NewResumableHolderSession's
// resume redial — and both runs publish identical results.
func TestTCPResumeFacade(t *testing.T) {
	schema := facadeSchema()
	holders := []string{"A", "B"}
	tableA, tableB := bigPartA(t), facadeParts(t)[1].Table

	type serverDone struct {
		session string
		report  *ppclust.TPReport
		err     error
	}
	completions := make(chan serverDone, 4)
	srv, err := ppclust.NewTPServer(holders, schema, tcpResumeOpts(), ppclust.TPServerOptions{
		MaxSessions: 2,
		Logf:        t.Logf,
		OnComplete: func(session string, report *ppclust.TPReport, err error) {
			completions <- serverDone{session, report, err}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln, ppclust.TPServeConfig{})
	tpAddr := ln.Addr().String()

	// runSession runs one two-holder tenant session; holder A dials the
	// server through dialA (the proxy, for the severed run).
	runSession := func(sid, dialA string) (resA, resB *ppclust.Result, report *ppclust.TPReport, err error) {
		// A↔B over loopback TCP like a real deployment.
		abLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		defer abLn.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := abLn.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		bPeer, err := net.Dial("tcp", abLn.Addr().String())
		if err != nil {
			return nil, nil, nil, err
		}
		aPeer := <-accepted

		type out struct {
			name string
			res  *ppclust.Result
			err  error
		}
		outs := make(chan out, 2)
		go func() {
			res, err := runResumeHolder("A", sid, tpAddr, dialA, tableA, map[string]net.Conn{"B": aPeer})
			outs <- out{"A", res, err}
		}()
		go func() {
			res, err := runResumeHolder("B", sid, tpAddr, tpAddr, tableB, map[string]net.Conn{"A": bPeer})
			outs <- out{"B", res, err}
		}()
		for i := 0; i < 2; i++ {
			o := <-outs
			if o.err != nil {
				return nil, nil, nil, fmt.Errorf("holder %s: %w", o.name, o.err)
			}
			if o.name == "A" {
				resA = o.res
			} else {
				resB = o.res
			}
		}
		select {
		case d := <-completions:
			if d.err != nil {
				return nil, nil, nil, fmt.Errorf("session %q on the server: %w", d.session, d.err)
			}
			return resA, resB, d.report, nil
		case <-time.After(30 * time.Second):
			return nil, nil, nil, fmt.Errorf("session %q: no server completion", sid)
		}
	}

	refA, refB, refReport, err := runSession("ref", tpAddr)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	// The severed run: A's admission and first stretch of stream ride the
	// proxy, which cuts the connection after 6000 upstream bytes — well
	// past the hello and key agreement, well short of the ~20 KiB local-
	// matrix stream. The resume redial goes straight to the server.
	cutA, cutB, cutReport, err := runSession("cut", cutProxy(t, tpAddr, 6000))
	if err != nil {
		t.Fatalf("severed run: %v", err)
	}

	if got := srv.Metrics().ReconnectsAccepted(); got < 1 {
		t.Errorf("reconnects_accepted = %d, want >= 1 — the proxy cut never engaged the resume path", got)
	}
	if got := srv.Metrics().Degraded(); got != 0 {
		t.Errorf("sessions_degraded gauge = %d after completion, want 0", got)
	}

	if !reflect.DeepEqual(cutA.Clusters, refA.Clusters) {
		t.Errorf("holder A clusters diverge after resume: %v vs %v", cutA.Clusters, refA.Clusters)
	}
	if !reflect.DeepEqual(cutB.Clusters, refB.Clusters) {
		t.Errorf("holder B clusters diverge after resume: %v vs %v", cutB.Clusters, refB.Clusters)
	}
	if !reflect.DeepEqual(cutReport.ObjectIDs, refReport.ObjectIDs) {
		t.Errorf("report ObjectIDs diverge: %v vs %v", cutReport.ObjectIDs, refReport.ObjectIDs)
	}
	for a := range refReport.AttributeMatrices {
		if !refReport.AttributeMatrices[a].EqualWithin(cutReport.AttributeMatrices[a], 0) {
			t.Errorf("attribute %d matrix diverges from the fault-free run", a)
		}
	}
}

package main

import (
	"errors"
	mrand "math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppclust"
	"ppclust/internal/netid"
)

func testDialer(retries int) *dialer {
	return &dialer{retries: retries, backoff: time.Millisecond, rnd: mrand.New(mrand.NewSource(1))}
}

// admissionServer accepts connections and answers each hello with the
// scripted decision, one per connection; nil means accept.
func admissionServer(t *testing.T, script []*netid.RejectedError) (addr string, served *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served = &atomic.Int32{}
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func(i int, conn net.Conn) {
				defer conn.Close()
				if _, err := netid.ReadHello(conn, time.Second); err != nil {
					return
				}
				if i < len(script) && script[i] != nil {
					netid.SendReject(conn, script[i].Code, script[i].Detail)
					return
				}
				netid.SendGrant(conn, netid.Grant{Shards: 1})
				// Keep the accepted connection open until the dialer is done
				// with it; closing immediately could race the accept read.
				time.Sleep(50 * time.Millisecond)
			}(i, conn)
		}
	}()
	return ln.Addr().String(), served
}

func TestDialRetriesConnectFailuresThenSucceeds(t *testing.T) {
	// Reserve an address, close the listener (dials now fail), and revive
	// it after the first failed attempt.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail on the dial below
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := netid.ReadHello(conn, time.Second); err == nil {
			netid.SendGrant(conn, netid.Grant{Shards: 1})
			time.Sleep(50 * time.Millisecond)
		}
	}()
	conn, err := testDialer(10).dial("third party", addr, handshake("A", "s1", 0, admissionTimeout, nil))
	if err != nil {
		t.Fatalf("dial never recovered: %v", err)
	}
	conn.Close()
}

// TestDialTypedRefusalIsFinal: a non-retryable reject ends the attempts
// immediately — the server told us retrying cannot help — and classifies
// as a session refusal (exit code 5).
func TestDialTypedRefusalIsFinal(t *testing.T) {
	addr, served := admissionServer(t, []*netid.RejectedError{
		{Code: netid.RejectCapacity, Detail: "full"},
		{Code: netid.RejectCapacity, Detail: "full"},
	})
	_, err := testDialer(5).dial("third party", addr, handshake("A", "s1", 0, admissionTimeout, nil))
	if err == nil {
		t.Fatal("refused dial succeeded")
	}
	if !errors.Is(err, ppclust.ErrSessionRefused) {
		t.Fatalf("refusal not classified: %v", err)
	}
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectCapacity {
		t.Fatalf("reject reason lost: %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("dialer retried a final refusal: %d connections", got)
	}
	if code := reportFailure(err); code != exitRefused {
		t.Fatalf("exit code %d, want %d", code, exitRefused)
	}
}

// TestDialRetryableRefusalRetries: the draining reject is marked
// retryable, so the dialer backs off and tries again.
func TestDialRetryableRefusalRetries(t *testing.T) {
	addr, served := admissionServer(t, []*netid.RejectedError{
		{Code: netid.RejectDraining, Detail: "draining"},
		nil, // second attempt admitted
	})
	conn, err := testDialer(5).dial("third party", addr, handshake("A", "s1", 0, admissionTimeout, nil))
	if err != nil {
		t.Fatalf("dial did not survive a retryable refusal: %v", err)
	}
	conn.Close()
	if got := served.Load(); got != 2 {
		t.Fatalf("served %d connections, want 2", got)
	}
}

func TestDialGivesUpAfterRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial fails
	_, err = testDialer(3).dial("third party", addr, handshake("A", "s1", 0, admissionTimeout, nil))
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("attempt count lost: %v", err)
	}
}

// TestDelayCapAndJitter: the backoff doubles, never exceeds the cap, and
// jitters within [base/2, base].
func TestDelayCapAndJitter(t *testing.T) {
	d := &dialer{retries: 10, backoff: 100 * time.Millisecond, rnd: mrand.New(mrand.NewSource(7))}
	prevBase := time.Duration(0)
	for attempt := 0; attempt < 12; attempt++ {
		base := d.backoff << attempt
		if base > maxConnectBackoff || base <= 0 {
			base = maxConnectBackoff
		}
		for i := 0; i < 50; i++ {
			got := d.delay(attempt)
			if got < base/2 || got > base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, base/2, base)
			}
			if got > maxConnectBackoff {
				t.Fatalf("attempt %d: delay %v above cap", attempt, got)
			}
		}
		if base < prevBase {
			t.Fatalf("attempt %d: base %v shrank from %v", attempt, base, prevBase)
		}
		prevBase = base
	}
}

// serveTP starts a multi-tenant third party for holders A and B on a
// localhost listener.
func serveTP(t *testing.T, opts ppclust.Options, srvOpts ppclust.TPServerOptions) (string, *ppclust.TPServer) {
	t.Helper()
	schema, err := ppclust.ParseSchema("age:numeric")
	if err != nil {
		t.Fatal(err)
	}
	srvOpts.Logf = t.Logf
	srv, err := ppclust.NewTPServer([]string{"A", "B"}, schema, opts, srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln, ppclust.TPServeConfig{}) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		<-served
	})
	return ln.Addr().String(), srv
}

// TestDefaultSessionHandshakeIsAnswered: a holder without -session sends
// the same hello for the default session and waits for its reply, so it
// learns a sharded server's shard count and sees a saturated server's
// typed refusal instead of a silent close.
func TestDefaultSessionHandshakeIsAnswered(t *testing.T) {
	sharded, _ := serveTP(t, ppclust.Options{TPShards: 2}, ppclust.TPServerOptions{})
	shards := 0
	conn, err := testDialer(1).dial("third party", sharded, handshake("A", "", 0, admissionTimeout, &shards))
	if err != nil {
		t.Fatalf("default-session dial to a sharded server: %v", err)
	}
	conn.Close()
	if shards != 2 {
		t.Fatalf("learned %d shards, want 2", shards)
	}

	// One gathering session fills the only slot; the default session is
	// refused with the capacity reason.
	saturated, srv := serveTP(t, ppclust.Options{}, ppclust.TPServerOptions{MaxSessions: 1})
	busy, err := net.Dial("tcp", saturated)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := netid.SendHello(busy, netid.Hello{Name: "A", Session: "busy"}, time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().Active() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the busy session never started gathering")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = testDialer(1).dial("third party", saturated, handshake("B", "", 0, admissionTimeout, nil))
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectCapacity {
		t.Fatalf("default-session dial to a saturated server: %v, want capacity refusal", err)
	}
}

// TestPeerHelloIsAnswered: the accepting holder grants an expected peer
// and refuses a non-join hello, a wrong session or lane, and an unexpected
// or duplicate peer with a typed reject, which the dialing holder's
// handshake surfaces.
func TestPeerHelloIsAnswered(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := map[string]net.Conn{}
	type outcome struct {
		peer string
		err  error
	}
	admitted := make(chan outcome, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			peer, err := admitPeer(c, "s1", []string{"B", "C"}, conns)
			if err == nil {
				conns[peer] = c
			} else {
				c.Close()
			}
			admitted <- outcome{peer, err}
		}
	}()
	for _, tc := range []struct {
		hello netid.Hello
		want  netid.RejectCode
	}{
		{netid.Hello{Name: "B", Session: "s1"}, 0},
		{netid.Hello{Name: "B", Session: "s1"}, netid.RejectDuplicateHolder},
		{netid.Hello{Name: "Z", Session: "s1"}, netid.RejectUnknownHolder},
		{netid.Hello{Name: "C", Session: "other"}, netid.RejectSession},
		{netid.Hello{Name: "C", Session: "s1", Lane: 1}, netid.RejectSession},
		{netid.Hello{Name: "C", Session: "s1", Purpose: netid.PurposeResume, Epoch: 1}, netid.RejectVersion},
	} {
		hs := func(c net.Conn) error {
			if err := netid.SendHello(c, tc.hello, handshakeTimeout); err != nil {
				return err
			}
			_, err := netid.AwaitGrant(c, time.Second)
			return err
		}
		c, err := testDialer(1).dial("peer A", ln.Addr().String(), hs)
		out := <-admitted
		var rej *netid.RejectedError
		switch {
		case tc.want == 0 && (err != nil || out.err != nil || out.peer != tc.hello.Name):
			t.Fatalf("%+v: dial %v, admit %+v", tc.hello, err, out)
		case tc.want != 0 && (!errors.As(err, &rej) || rej.Code != tc.want):
			t.Fatalf("%+v: dial %v, want %v refusal", tc.hello, err, tc.want)
		}
		if c != nil {
			c.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
}

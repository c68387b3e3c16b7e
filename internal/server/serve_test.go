package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// startServe runs the accept loop on an ephemeral listener and returns its
// address plus a stop func that closes the listener and waits for Serve to
// return cleanly.
func startServe(t *testing.T, m *Manager, sc ServeConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- m.Serve(ln, sc) }()
	stop := func() {
		ln.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after listener close")
		}
	}
	return ln.Addr().String(), stop
}

// runTCPSession drives one complete tenant session against a served
// address: each holder dials, sends its hello, waits for its grant, then
// runs the party protocol with the TCP conduit
// to the TP and an in-memory pipe to its peer.
func runTCPSession(t *testing.T, addr, session string) <-chan error {
	t.Helper()
	tables := testTables()
	random := sessionRandom(session)
	ab, ba := wire.Pipe()
	errs := make(chan error, 2)
	run := func(name, peer string, hh wire.Conduit) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			errs <- err
			return
		}
		if err := netid.SendHello(conn, netid.Hello{Name: name, Session: session}, 5*time.Second); err != nil {
			conn.Close()
			errs <- err
			return
		}
		if _, err := netid.AwaitGrant(conn, 30*time.Second); err != nil {
			conn.Close()
			errs <- err
			return
		}
		tp := wire.TCPPooled(conn)
		defer tp.Close()
		h, err := party.NewHolder(name, tables[name], roster, testSession(), party.ClusterRequest{K: 2},
			map[string]wire.Conduit{party.TPName: tp, peer: hh}, random(name))
		if err != nil {
			errs <- err
			return
		}
		_, err = h.Run()
		errs <- err
	}
	go run("A", "B", ab)
	go run("B", "A", ba)
	out := make(chan error, 1)
	go func() {
		err := errors.Join(<-errs, <-errs)
		ab.Close()
		ba.Close()
		out <- err
	}()
	return out
}

// TestServeSilentConnDoesNotBlockOthers is the regression test for the
// serial-handshake accept loop: a client that connects and never sends its
// hello must not stall other tenants. The handshake timeout is set far
// above the test budget, so completion within it proves the handshakes ran
// concurrently, not back to back.
func TestServeSilentConnDoesNotBlockOthers(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 2})
	addr, stop := startServe(t, m, ServeConfig{HandshakeTimeout: 2 * time.Minute})

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	holders := runTCPSession(t, addr, "busy")
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("session behind a silent connection failed: %v", err)
	}
	if out := done.next(t); out.id != "busy" || out.err != nil {
		t.Fatalf("completion %q err=%v", out.id, out.err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("session took %v — handshake of the silent connection serialized the loop", elapsed)
	}

	silent.Close() // unblocks its handshake goroutine; Serve can then drain
	stop()
	if err := m.Drain(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeLegacyHelloOverTCP: a pre-hello client's name-only preamble is
// not a hello, so the server closes it without starting a session; a
// holder that names no session sends the one hello for the default
// session and completes.
func TestServeLegacyHelloOverTCP(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1})
	addr, stop := startServe(t, m, ServeConfig{})

	legacy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.Write([]byte{1, 'A'}); err != nil {
		t.Fatal(err)
	}
	legacy.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := legacy.Read(make([]byte, 1)); err == nil {
		t.Fatalf("legacy preamble answered with %d bytes, want a close", n)
	}
	if m.Metrics().Active() != 0 {
		t.Fatal("legacy preamble started a session")
	}

	if err := awaitHolders(t, runTCPSession(t, addr, "")); err != nil {
		t.Fatalf("default session: %v", err)
	}
	if out := done.next(t); out.id != "" || out.err != nil {
		t.Fatalf("default-session completion id=%q err=%v", out.id, out.err)
	}
	stop()
}

// TestServeFutureVersionRejectedOverTCP: every hello the server cannot
// serve gets its typed refusal on the wire, not a hang or a silent close —
// a foreign version byte and a shard registration by version, a lane past
// the session's shards by session, a resume of no running session by
// resume — and a draining server refuses with the one retryable code.
func TestServeFutureVersionRejectedOverTCP(t *testing.T) {
	defer leakcheck.Check(t)
	m, _ := newManager(t, Config{MaxSessions: 1})
	addr, stop := startServe(t, m, ServeConfig{})

	refusal := func(write func(net.Conn) error) *netid.RejectedError {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := write(conn); err != nil {
			t.Fatal(err)
		}
		_, err = netid.AwaitGrant(conn, 10*time.Second)
		var rej *netid.RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("reply %v, want a typed refusal", err)
		}
		return rej
	}
	hello := func(h netid.Hello) func(net.Conn) error {
		return func(c net.Conn) error { return netid.SendHello(c, h, 5*time.Second) }
	}
	for _, tc := range []struct {
		what  string
		write func(net.Conn) error
		want  netid.RejectCode
	}{
		{"older version", func(c net.Conn) error {
			_, err := c.Write([]byte{0xFF, 4, 1, 'A', 2, 's', '9', 0})
			return err
		}, netid.RejectVersion},
		{"newer version", func(c net.Conn) error {
			_, err := c.Write([]byte{0xFF, netid.Version + 1, 0, 1, 'A', 0})
			return err
		}, netid.RejectVersion},
		{"registration", hello(netid.Hello{Name: "A", Session: "s9", Purpose: netid.PurposeRegister, Lane: 1}), netid.RejectVersion},
		{"lane past K", hello(netid.Hello{Name: "A", Session: "s9", Lane: 2}), netid.RejectSession},
		{"resume of no session", hello(netid.Hello{Name: "A", Session: "s9", Purpose: netid.PurposeResume, Epoch: 1}), netid.RejectResume},
	} {
		if rej := refusal(tc.write); rej.Code != tc.want || rej.Retryable() {
			t.Fatalf("%s: refused with %v (retryable %v), want %v", tc.what, rej.Code, rej.Retryable(), tc.want)
		}
	}

	if err := m.Drain(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rej := refusal(hello(netid.Hello{Name: "A", Session: "s9"})); rej.Code != netid.RejectDraining || !rej.Retryable() {
		t.Fatalf("draining server refused with %v (retryable %v)", rej.Code, rej.Retryable())
	}
	stop()
}

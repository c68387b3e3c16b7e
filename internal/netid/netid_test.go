package netid

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// roundTrip sends h over a pipe and returns what the acceptor parsed.
func roundTrip(t *testing.T, h Hello) Hello {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- SendHello(a, h, time.Second) }()
	got, err := ReadHello(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return got
}

// serveReply runs one reply writer on a pipe and returns the dialer's end.
func serveReply(t *testing.T, write func(c net.Conn) error) (net.Conn, chan error) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	done := make(chan error, 1)
	go func() { done <- write(a) }()
	return b, done
}

func TestAnnounceAccept(t *testing.T) {
	h := roundTrip(t, Hello{Name: "HolderA"})
	want := Hello{Name: "HolderA", Version: Version}
	if h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	if h.Resume() || h.ShardRegistration() {
		t.Fatal("zero-purpose hello must be a join")
	}
}

// refuseHellos asserts that SendHello returns an error for each hello.
func refuseHellos(t *testing.T, hellos ...Hello) {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	for _, h := range hellos {
		if err := SendHello(a, h, time.Second); err == nil {
			t.Fatalf("hello %+v accepted", h)
		}
	}
}

// TestAnnounceValidation: SendHello refuses an over-long name and a
// purpose the parser would reject.
func TestAnnounceValidation(t *testing.T) {
	refuseHellos(t,
		Hello{Name: strings.Repeat("x", 65)},
		Hello{Name: "H", Purpose: PurposeRegister + 1},
	)
}

// TestSendHelloSessionValidation: an empty name and an over-long session
// are refused.
func TestSendHelloSessionValidation(t *testing.T) {
	refuseHellos(t,
		Hello{Session: "s"},
		Hello{Name: "H", Session: strings.Repeat("s", 65)},
	)
}

// TestSendHelloLaneValidation: a lane outside [0, MaxShards] is refused.
func TestSendHelloLaneValidation(t *testing.T) {
	refuseHellos(t,
		Hello{Name: "H", Lane: -1},
		Hello{Name: "H", Lane: MaxShards + 1},
	)
}

// TestAcceptRejectsGarbage: a zero-length name, an unknown purpose, an
// out-of-range lane and a name-only preamble without the magic byte are
// descriptive parse errors.
func TestAcceptRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		frame []byte
		want  string
	}{
		{[]byte{magic, Version, 0, 0}, "invalid name length 0"},
		{[]byte{magic, Version, 7, 1, 'H'}, "invalid purpose 7"},
		{append([]byte{magic, Version, 0, 1, 'H', 0, 0xFF}, make([]byte, 20)...), "invalid lane 255"},
		{[]byte{7, 'H', 'o', 'l', 'd', 'e', 'r'}, "not a hello"},
	} {
		_, err := parseHello(bytes.NewReader(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("frame %x: err = %v, want %q", tc.frame, err, tc.want)
		}
	}
}

func TestExtendedHelloRoundTrip(t *testing.T) {
	h := roundTrip(t, Hello{Name: "HolderA", Session: "tenant-7", Version: 99})
	want := Hello{Name: "HolderA", Session: "tenant-7", Version: Version}
	if h != want {
		t.Fatalf("hello = %+v, want %+v (the writer always sends Version)", h, want)
	}
}

// TestFutureVersionHelloSurvivesParse: a hello with a foreign version byte
// (an older build's 1–4, or a newer one) parses to its claimed version and
// nothing else, so the acceptor refuses it with RejectVersion instead of a
// parse error.
func TestFutureVersionHelloSurvivesParse(t *testing.T) {
	for _, v := range []byte{0, 1, 4, Version + 1} {
		h, err := parseHello(bytes.NewReader([]byte{magic, v, 1, 'H', 2, 's', '2'}))
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if h != (Hello{Version: int(v)}) {
			t.Fatalf("version %d: hello = %+v, want only the version", v, h)
		}
	}
}

func TestAdmissionAcceptAndReject(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(c net.Conn) error
		check func(t *testing.T, err error)
	}{
		{"accept", func(c net.Conn) error { return SendGrant(c, Grant{Shards: 1}) }, func(t *testing.T, err error) {
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
		}},
		{"reject", func(c net.Conn) error {
			return SendReject(c, RejectQueueFull, "3 sessions active, queue of 2 full")
		}, func(t *testing.T, err error) {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("err = %v, want ErrRejected", err)
			}
			var re *RejectedError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RejectedError", err)
			}
			if re.Code != RejectQueueFull || re.Code.String() != "queue-full" {
				t.Fatalf("code = %v", re.Code)
			}
			if re.Detail != "3 sessions active, queue of 2 full" {
				t.Fatalf("detail = %q", re.Detail)
			}
			if re.Retryable() {
				t.Fatal("queue-full marked retryable")
			}
		}},
		{"reject-draining-retryable", func(c net.Conn) error {
			return SendReject(c, RejectDraining, "")
		}, func(t *testing.T, err error) {
			var re *RejectedError
			if !errors.As(err, &re) || !re.Retryable() {
				t.Fatalf("err = %v, want retryable draining refusal", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, done := serveReply(t, tc.serve)
			_, err := AwaitGrant(b, time.Second)
			tc.check(t, err)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAwaitGrantTimesOutOnParkedConnection(t *testing.T) {
	// A server that parks the connection past the dialer's patience is a
	// deadline error, never a hang.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	_, err := AwaitGrant(b, 30*time.Millisecond)
	if err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want plain deadline error", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not applied")
	}
}

func TestAcceptWithinTimesOutOnSilentClient(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if _, err := ReadHello(b, 30*time.Millisecond); err == nil {
		t.Fatal("silent client accepted")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not applied")
	}
	// The same connection takes a fresh deadline: a prompt client still
	// gets through after the timed-out read.
	done := make(chan error, 1)
	go func() { done <- SendHello(a, Hello{Name: "H"}, time.Second) }()
	h, err := ReadHello(b, time.Second)
	if err != nil || h.Name != "H" {
		t.Fatalf("hello = %+v err=%v", h, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShardedHelloRoundTrip: the control lane (0) and shard lanes (s+1)
// round-trip through SendHello / ReadHello.
func TestShardedHelloRoundTrip(t *testing.T) {
	for _, lane := range []int{0, 1, 4, MaxShards} {
		h := roundTrip(t, Hello{Name: "HolderA", Session: "tenant-7", Lane: lane})
		if h.Name != "HolderA" || h.Session != "tenant-7" || h.Version != Version || h.Lane != lane {
			t.Fatalf("lane %d: hello = %+v", lane, h)
		}
	}
}

// TestRoutingAdmission: the grant carries the session's shard count; a
// reject flows through the same typed path; and a grant cut short before
// its body is a descriptive error, never a misparse or a hang.
func TestRoutingAdmission(t *testing.T) {
	b, done := serveReply(t, func(c net.Conn) error { return SendGrant(c, Grant{Shards: 4}) })
	g, err := AwaitGrant(b, time.Second)
	if err != nil || g != (Grant{Shards: 4}) {
		t.Fatalf("grant = %+v err=%v, want 4 shards", g, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	b, done = serveReply(t, func(c net.Conn) error { return SendReject(c, RejectVersion, "no") })
	if _, err := AwaitGrant(b, time.Second); !errors.Is(err, ErrRejected) {
		t.Fatalf("reject: %v, want ErrRejected", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// An older build's one-byte accept closes before the grant body.
	b, done = serveReply(t, func(c net.Conn) error {
		if _, err := c.Write([]byte{statusGrant, 2}); err != nil {
			return err
		}
		return c.Close()
	})
	if g, err := AwaitGrant(b, time.Second); err == nil {
		t.Fatalf("truncated grant parsed as %+v", g)
	}
	<-done
}

func TestSendAcceptRoutingValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SendGrant(&buf, Grant{}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if err := SendGrant(&buf, Grant{Shards: MaxShards + 1}); err == nil {
		t.Fatalf("%d shards accepted", MaxShards+1)
	}
	if buf.Len() != 0 {
		t.Fatalf("invalid grant wrote %d bytes", buf.Len())
	}
}

func TestResumeHelloRoundTrip(t *testing.T) {
	in := Hello{Name: "HolderB", Session: "tenant-9", Purpose: PurposeResume,
		Lane: 3, Epoch: 5, Sent: 1234, Recv: 99}
	h := roundTrip(t, in)
	want := in
	want.Version = Version
	if h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	if !h.Resume() || h.ShardRegistration() {
		t.Fatal("resume hello must report Resume only")
	}
}

func TestResumeHelloControlLane(t *testing.T) {
	h := roundTrip(t, Hello{Name: "HolderA", Session: "s", Purpose: PurposeResume, Epoch: 1, Sent: 7, Recv: 7})
	if h.Lane != 0 || !h.Resume() {
		t.Fatalf("hello = %+v, want a control-lane resume", h)
	}
}

func TestResumeGrantRoundTrip(t *testing.T) {
	b, done := serveReply(t, func(c net.Conn) error { return SendGrant(c, Grant{Shards: 2, Sent: 4321, Recv: 17}) })
	g, err := AwaitGrant(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g != (Grant{Shards: 2, Sent: 4321, Recv: 17}) {
		t.Fatalf("grant = %+v", g)
	}
	// The compatibility form returns the same watermarks.
	b, done = serveReply(t, func(c net.Conn) error { return SendGrant(c, Grant{Shards: 1, Sent: 8, Recv: 9}) })
	if sent, recv, err := AwaitResumeGrant(b, time.Second); err != nil || sent != 8 || recv != 9 {
		t.Fatalf("AwaitResumeGrant = (%d, %d, %v)", sent, recv, err)
	}
	<-done
}

func TestResumeGrantReject(t *testing.T) {
	b, _ := serveReply(t, func(c net.Conn) error {
		return SendReject(c, RejectResume, "watermark behind installed rows")
	})
	_, _, err := AwaitResumeGrant(b, time.Second)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var re *RejectedError
	if !errors.As(err, &re) || re.Code != RejectResume {
		t.Fatalf("err = %v, want RejectResume", err)
	}
	if re.Code.String() != "resume" {
		t.Fatalf("code string = %q", re.Code.String())
	}
	if re.Retryable() {
		t.Fatal("resume reject must not be retryable")
	}
}

// TestFutureVersionPassthrough pins the forward-compat contract over a
// connection: a foreign version is returned with no field past the version
// byte consumed and no purpose, so the acceptor can refuse it
// (RejectVersion) without this layer guessing at the layout.
func TestFutureVersionPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{magic, Version + 1, 1, 'H', 1, 's'})
	h, err := ReadHello(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version+1 || h.Name != "" {
		t.Fatalf("hello = %+v", h)
	}
	if h.Resume() || h.ShardRegistration() {
		t.Fatal("foreign version must not classify as resume or registration")
	}
	// The unread remainder is still on the wire.
	rest := make([]byte, 4)
	if _, err := b.Read(rest); err != nil || rest[0] != 1 || rest[1] != 'H' {
		t.Fatalf("remainder %x, %v", rest, err)
	}
}

// TestShardRegistrationRoundTrip: the coordinator's registration hello
// round-trips name, session, shard lane, epoch and watermarks through
// AnnounceShardRegistrationWithin / ReadHello and classifies as a
// registration, never a holder resume.
func TestShardRegistrationRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		done <- AnnounceShardRegistrationWithin(a, "TP", "tenant-3", 2, 7, 41, 8, time.Second)
	}()
	h, err := ReadHello(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := Hello{Name: "TP", Session: "tenant-3", Version: Version, Purpose: PurposeRegister,
		Lane: 3, Epoch: 7, Sent: 41, Recv: 8}
	if h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	if !h.ShardRegistration() || h.Resume() {
		t.Fatal("registration hello must report ShardRegistration only")
	}
}

func TestAnnounceShardRegistrationValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := AnnounceShardRegistrationWithin(a, "TP", "s", -1, 0, 0, 0, time.Second); err == nil {
		t.Fatal("shard -1 accepted (workers have no control lane)")
	}
	if err := AnnounceShardRegistrationWithin(a, "TP", "s", MaxShards, 0, 0, 0, time.Second); err == nil {
		t.Fatalf("shard %d accepted", MaxShards)
	}
	if err := AnnounceShardRegistrationWithin(a, "", "s", 0, 0, 0, 0, time.Second); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestRejectDetailCutOnRuneBoundary: an over-long detail is cut so the
// frame still carries valid UTF-8 within the 512-byte bound.
func TestRejectDetailCutOnRuneBoundary(t *testing.T) {
	var buf bytes.Buffer
	if err := SendReject(&buf, RejectBudget, strings.Repeat("a", 511)+"é"); err != nil {
		t.Fatal(err)
	}
	_, err := parseGrant(&buf)
	var re *RejectedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RejectedError", err)
	}
	if !utf8.ValidString(re.Detail) || len(re.Detail) > maxRejectDetail {
		t.Fatalf("detail of %d bytes, valid UTF-8 %v", len(re.Detail), utf8.ValidString(re.Detail))
	}
}

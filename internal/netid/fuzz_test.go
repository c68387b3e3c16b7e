package netid

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// captureHello returns the exact bytes SendHello puts on the wire for h,
// so the corpus is seeded from the real writer rather than hand-maintained
// encodings.
func captureHello(f *testing.F, h Hello) []byte {
	f.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- SendHello(a, h, time.Second) }()
	buf := make([]byte, 4096)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, err := b.Read(buf)
	if err != nil {
		f.Fatalf("capturing seed bytes: %v", err)
	}
	if err := <-done; err != nil {
		f.Fatalf("seed writer: %v", err)
	}
	return buf[:n]
}

// FuzzParseHello feeds arbitrary bytes to the hello decoder, seeded from
// every purpose and from foreign versions: the parser must never panic,
// and a hello it accepts must satisfy the field bounds and classify as
// exactly one purpose.
func FuzzParseHello(f *testing.F) {
	for _, h := range []Hello{
		{Name: "HolderA"},
		{Name: "HolderA", Session: "tenant-7"},
		{Name: "HolderA", Session: "tenant-7", Lane: 4},
		{Name: "HolderB", Session: "tenant-9", Purpose: PurposeResume, Lane: 3, Epoch: 5, Sent: 1234, Recv: 99},
		{Name: "HolderB", Purpose: PurposeResume, Epoch: 1, Sent: 7, Recv: 7},
		{Name: "TP", Session: "tenant-3", Purpose: PurposeRegister, Lane: 3, Epoch: 7, Sent: 41, Recv: 8},
	} {
		f.Add(captureHello(f, h))
	}
	f.Add([]byte{magic, 4, 1, 'H', 1, 's', 3})      // an older build's version 4
	f.Add([]byte{magic, Version + 1, 0, 1, 'H', 0}) // a newer build
	f.Add([]byte{7, 'H', 'o', 'l', 'd', 'e', 'r'})  // name-only, no magic
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Version != Version {
			if h != (Hello{Version: h.Version}) {
				t.Fatalf("foreign version carries fields: %+v", h)
			}
			return
		}
		if h.Name == "" || len(h.Name) > maxName {
			t.Fatalf("accepted name %q outside (0, %d]", h.Name, maxName)
		}
		if len(h.Session) > maxSession {
			t.Fatalf("accepted session of %d bytes", len(h.Session))
		}
		if h.Lane < 0 || h.Lane > MaxShards || h.Purpose > PurposeRegister {
			t.Fatalf("accepted lane %d purpose %d", h.Lane, h.Purpose)
		}
		if h.Resume() && h.ShardRegistration() {
			t.Fatalf("hello classifies as both resume and registration: %+v", h)
		}
	})
}

// FuzzParseReject feeds arbitrary bytes to the hello-reply decoder, seeded
// from real grants and reject frames: it must never panic, an accepted
// grant must round-trip through SendGrant, and a typed refusal must stay
// within the detail bound and classify under ErrRejected.
func FuzzParseReject(f *testing.F) {
	seed := func(write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(b *bytes.Buffer) error {
		return SendReject(b, RejectQueueFull, "3 sessions active, queue of 2 full")
	})
	seed(func(b *bytes.Buffer) error { return SendReject(b, RejectDraining, "") })
	seed(func(b *bytes.Buffer) error { return SendReject(b, RejectResume, "watermark behind installed rows") })
	f.Add([]byte{statusReject, byte(RejectVersion), 0xFF, 0xFF}) // oversized detail length
	seed(func(b *bytes.Buffer) error { return SendGrant(b, Grant{Shards: 1}) })
	seed(func(b *bytes.Buffer) error { return SendGrant(b, Grant{Shards: 3, Sent: 4321, Recv: 17}) })
	f.Add([]byte{statusGrant, 0}) // zero shards, truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseGrant(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if err := SendGrant(&buf, g); err != nil {
				t.Fatalf("accepted grant %+v is unwritable: %v", g, err)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("grant %+v does not round-trip", g)
			}
			return
		}
		var re *RejectedError
		if !errors.As(err, &re) {
			return // descriptive parse failure
		}
		if !errors.Is(err, ErrRejected) {
			t.Fatal("typed refusal not classified under ErrRejected")
		}
		if len(re.Detail) > maxRejectDetail {
			t.Fatalf("accepted detail of %d bytes", len(re.Detail))
		}
	})
}

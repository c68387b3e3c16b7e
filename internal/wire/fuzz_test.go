package wire

import (
	"testing"
)

// fuzzBody stands in for a party body: a nested struct with a slice and a
// matrix, the shapes the session's frames carry.
type fuzzBody struct {
	Rows  int
	Cells []float64
	Names []string
	Grid  [][]int64
}

// FuzzEndpointRecv feeds one arbitrary frame through a Pipe into
// Endpoint.Recv, seeded from frames Endpoint.Send and SendBody really
// write: every frame must yield either a Message or an error, never a
// panic.
func FuzzEndpointRecv(f *testing.F) {
	tx, rx := Pipe()
	sender := NewEndpoint(tx)
	for _, send := range []func() error{
		func() error { return sender.Send(&Message{From: "A", To: "TP", Kind: "ppc/census", Attr: -1}) },
		func() error {
			return sender.Send(&Message{From: "TP", To: "B", Kind: "ppc/abort", Attr: 2, PairJ: "A", PairK: "B", Payload: []byte("x")})
		},
		func() error {
			return sender.SendBody(Message{From: "A", To: "B", Kind: "ppc/chunk", Attr: 0, PairJ: "A", PairK: "B"},
				fuzzBody{Rows: 2, Cells: []float64{1.5, -2, 3}, Names: []string{"a", "b"}, Grid: [][]int64{{1, 2}, {3}}})
		},
	} {
		if err := send(); err != nil {
			f.Fatal(err)
		}
		frame, err := rx.Recv()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	tx.Close()
	rx.Close()
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, frame []byte) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		if err := a.Send(frame); err != nil {
			t.Fatal(err)
		}
		m, err := NewEndpoint(b).Recv()
		if (m == nil) == (err == nil) {
			t.Fatalf("Recv returned message %v and error %v", m, err)
		}
		if m != nil {
			var body fuzzBody
			_ = DecodeBody(m.Payload, &body)
		}
	})
}

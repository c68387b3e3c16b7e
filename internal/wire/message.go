package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Kind names a protocol message type. Kinds are defined by the layers that
// speak them (internal/party); the wire layer treats them as routing labels.
type Kind string

// Message is the typed envelope every ppclust protocol exchange uses. The
// Payload is a gob-encoded body struct owned by the sending layer.
type Message struct {
	// From and To are party names ("A", "B", …, "TP").
	From, To string
	// Kind selects the payload schema.
	Kind Kind
	// Attr is the attribute index a protocol message pertains to, or -1.
	Attr int
	// PairJ and PairK name the data-holder pair a comparison-protocol
	// message belongs to (empty outside pairwise protocols).
	PairJ, PairK string
	// Payload is the gob-encoded message body.
	Payload []byte
}

// EncodeBody gob-encodes a payload struct for embedding in a Message.
func EncodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeBody decodes a Message payload into v, which must be a pointer.
func DecodeBody(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return nil
}

// Endpoint sends and receives Messages over a Conduit.
type Endpoint struct {
	conduit Conduit
}

// NewEndpoint wraps a conduit for Message traffic.
func NewEndpoint(c Conduit) *Endpoint { return &Endpoint{conduit: c} }

// encBufs pools the gob encode buffers Endpoint.Send frames messages in.
// Conduit.Send may not retain its frame, so a buffer is safe to recycle the
// moment Send returns; with row-chunked matrix streaming sending many
// mid-sized frames per attribute, reuse keeps the per-frame cost at the
// conduit's own copy instead of a fresh buffer growth per message.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Send serializes and transmits m.
func (e *Endpoint) Send(m *Message) error {
	buf := encBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxRetainedBuf {
			buf.Reset()
			encBufs.Put(buf)
		}
	}()
	if err := gob.NewEncoder(buf).Encode(m); err != nil {
		return fmt.Errorf("wire: encoding message %q: %w", m.Kind, err)
	}
	if buf.Len() > MaxFrame {
		return fmt.Errorf("wire: message %q of %d bytes: %w", m.Kind, buf.Len(), ErrFrameTooLarge)
	}
	return e.conduit.Send(buf.Bytes())
}

// SendBody encodes body and sends it under the given envelope fields.
func (e *Endpoint) SendBody(m Message, body any) error {
	p, err := EncodeBody(body)
	if err != nil {
		return err
	}
	m.Payload = p
	return e.Send(&m)
}

// Recv blocks for the next Message.
func (e *Endpoint) Recv() (*Message, error) {
	frame, err := e.conduit.Recv()
	if err != nil {
		return nil, err
	}
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&m); err != nil {
		return nil, fmt.Errorf("wire: decoding message frame: %w", err)
	}
	return &m, nil
}

// Expect receives the next message and verifies its Kind, decoding the
// payload into body when body is non-nil.
func (e *Endpoint) Expect(kind Kind, body any) (*Message, error) {
	m, err := e.Recv()
	if err != nil {
		return nil, err
	}
	if m.Kind != kind {
		return nil, fmt.Errorf("wire: expected message %q, got %q from %s", kind, m.Kind, m.From)
	}
	if body != nil {
		if err := DecodeBody(m.Payload, body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Close closes the underlying conduit.
func (e *Endpoint) Close() error { return e.conduit.Close() }

// Package netid is the connection preamble of the TCP deployment: before
// the session handshake, the dialing party says who it is, for which
// session, on which lane and for what purpose, and the acceptor answers
// on the same connection with a grant or a typed refusal.
//
// There is one hello and one grant (docs/WIRE.md, "Connection preamble
// and admission"), with every field always present, big-endian:
//
//	hello  [0xFF][Version][purpose][len][name][len][session][lane][epoch u32][sent u64][recv u64]
//	grant  [0x00][shards u8][sent u64][recv u64]
//	reject [0x01][code u8][len u16][detail]
//
// Every hello is answered. A hello whose version byte is not Version is
// parsed only through that byte, so the acceptor refuses it by number
// (RejectVersion) instead of guessing at a layout it does not know.
package netid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
	"unicode/utf8"
)

// maxName bounds announced names.
const maxName = 64

// maxSession bounds announced session IDs.
const maxSession = 64

// Version is the only preamble version. Earlier builds sent versions 1–4
// behind the same magic byte; none of them sends 5, so every acceptor
// refuses them by number.
const Version = 5

// MaxShards bounds the lane byte: lane 0 is the control connection (or,
// on a shard-worker link, invalid), lane s+1 the conduit to shard s.
const MaxShards = 254

// magic opens every hello.
const magic = 0xFF

// Reply status bytes.
const (
	statusGrant  = 0x00
	statusReject = 0x01
)

// maxRejectDetail bounds the free-text detail of a reject frame.
const maxRejectDetail = 512

// Purpose says what a hello asks for. The zero value is a join.
type Purpose byte

const (
	// PurposeJoin joins a session as a holder: a holder's control or
	// shard lane at the third party, or a peer holder's mesh link.
	PurposeJoin Purpose = iota
	// PurposeResume re-dials a severed lane of a live session. Epoch is
	// the transport epoch the dialer proposes for the rebound conduit —
	// strictly greater than every epoch the lane has used — and Sent/Recv
	// are its frame watermarks on the dead conduit.
	PurposeResume
	// PurposeRegister registers a coordinator with a shard worker process.
	// Lane carries the assigned shard as shard+1 and Epoch/Sent/Recv the
	// coordinator's link state (zero on first contact). Only shard workers
	// accept it.
	PurposeRegister
)

// Hello is a parsed connection preamble. The zero Purpose and Lane make a
// hand-built Hello{Name, Session, Version: Version} a control-lane join.
type Hello struct {
	Name    string
	Session string // "" names the default session
	Version int
	Purpose Purpose
	// Lane is the conduit lane in wire form: 0 for the control connection,
	// s+1 for the conduit to TP shard s.
	Lane  int
	Epoch uint32
	Sent  uint64
	Recv  uint64
}

// Resume reports whether the hello asks to resume a severed lane of a live
// session rather than join a new one.
func (h Hello) Resume() bool { return h.Purpose == PurposeResume }

// ShardRegistration reports whether the hello is a coordinator registering
// (or re-registering) with a shard worker process.
func (h Hello) ShardRegistration() bool { return h.Purpose == PurposeRegister }

// SendHello writes h as a Version hello (h.Version is ignored) under a
// write deadline, cleared before returning so the session owns the
// connection's timeout policy afterwards. The dialer then waits for the
// reply with AwaitGrant.
func SendHello(conn net.Conn, h Hello, timeout time.Duration) error {
	switch {
	case h.Name == "" || len(h.Name) > maxName:
		return fmt.Errorf("netid: invalid name %q", h.Name)
	case len(h.Session) > maxSession:
		return fmt.Errorf("netid: session ID %q longer than %d bytes", h.Session, maxSession)
	case h.Purpose > PurposeRegister:
		return fmt.Errorf("netid: invalid purpose %d", h.Purpose)
	case h.Lane < 0 || h.Lane > MaxShards:
		return fmt.Errorf("netid: lane %d outside [0, %d]", h.Lane, MaxShards)
	case h.Purpose == PurposeRegister && h.Lane == 0:
		return errors.New("netid: a shard registration needs a shard lane (workers have no control lane)")
	}
	buf := make([]byte, 0, 26+len(h.Name)+len(h.Session))
	buf = append(buf, magic, Version, byte(h.Purpose), byte(len(h.Name)))
	buf = append(buf, h.Name...)
	buf = append(buf, byte(len(h.Session)))
	buf = append(buf, h.Session...)
	buf = append(buf, byte(h.Lane))
	buf = binary.BigEndian.AppendUint32(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, h.Sent)
	buf = binary.BigEndian.AppendUint64(buf, h.Recv)
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	return conn.SetWriteDeadline(time.Time{})
}

// ReadHello parses a hello from a fresh connection under a read deadline,
// cleared before returning. A foreign version is returned with only its
// Version set and nothing past the version byte read; the acceptor refuses
// it (RejectVersion) and closes the connection.
func ReadHello(conn net.Conn, timeout time.Duration) (Hello, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Hello{}, err
	}
	h, err := parseHello(conn)
	if err != nil {
		return Hello{}, err
	}
	return h, conn.SetReadDeadline(time.Time{})
}

// parseHello is the one hello decoder. Every length is checked before it
// sizes an allocation.
func parseHello(r io.Reader) (Hello, error) {
	var head [2]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Hello{}, fmt.Errorf("netid: reading hello: %w", err)
	}
	if head[0] != magic {
		return Hello{}, fmt.Errorf("netid: not a hello (first byte %#02x)", head[0])
	}
	if head[1] != Version {
		return Hello{Version: int(head[1])}, nil
	}
	var purpose [1]byte
	if _, err := io.ReadFull(r, purpose[:]); err != nil {
		return Hello{}, fmt.Errorf("netid: reading purpose: %w", err)
	}
	if Purpose(purpose[0]) > PurposeRegister {
		return Hello{}, fmt.Errorf("netid: invalid purpose %d", purpose[0])
	}
	name, err := readString(r, "name", maxName)
	if err != nil {
		return Hello{}, err
	}
	if name == "" {
		return Hello{}, errors.New("netid: invalid name length 0")
	}
	session, err := readString(r, "session", maxSession)
	if err != nil {
		return Hello{}, err
	}
	var tail [21]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Hello{}, fmt.Errorf("netid: reading lane and watermarks: %w", err)
	}
	if tail[0] > MaxShards {
		return Hello{}, fmt.Errorf("netid: invalid lane %d", tail[0])
	}
	return Hello{
		Name:    name,
		Session: session,
		Version: Version,
		Purpose: Purpose(purpose[0]),
		Lane:    int(tail[0]),
		Epoch:   binary.BigEndian.Uint32(tail[1:5]),
		Sent:    binary.BigEndian.Uint64(tail[5:13]),
		Recv:    binary.BigEndian.Uint64(tail[13:21]),
	}, nil
}

// readString reads one length-prefixed hello field of at most max bytes.
func readString(r io.Reader, what string, max int) (string, error) {
	var l [1]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("netid: reading %s length: %w", what, err)
	}
	if int(l[0]) > max {
		return "", fmt.Errorf("netid: invalid %s length %d", what, l[0])
	}
	b := make([]byte, l[0])
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("netid: reading %s: %w", what, err)
	}
	return string(b), nil
}

// Grant admits a hello. Shards is the session's TP shard count: a holder
// whose control lane is granted K > 1 dials one more lane per shard. Sent
// and Recv are the acceptor's frame watermarks for a resumed lane — what
// it had sent on, and received and installed from, the dead conduit — and
// zero for every other purpose. A shard worker answers with {1, 0, 0}.
type Grant struct {
	Shards int
	Sent   uint64
	Recv   uint64
}

// SendGrant answers a hello with admission. The session handshake frames
// follow on the same connection.
func SendGrant(w io.Writer, g Grant) error {
	if g.Shards < 1 || g.Shards > MaxShards {
		return fmt.Errorf("netid: shard count %d outside [1, %d]", g.Shards, MaxShards)
	}
	buf := make([]byte, 0, 18)
	buf = append(buf, statusGrant, byte(g.Shards))
	buf = binary.BigEndian.AppendUint64(buf, g.Sent)
	buf = binary.BigEndian.AppendUint64(buf, g.Recv)
	_, err := w.Write(buf)
	return err
}

// SendReject answers a hello with a typed refusal. The detail is cut to
// maxRejectDetail bytes on a rune boundary. The caller closes the
// connection after; nothing may follow a reject frame.
func SendReject(w io.Writer, code RejectCode, detail string) error {
	if len(detail) > maxRejectDetail {
		cut := maxRejectDetail
		for cut > 0 && !utf8.RuneStart(detail[cut]) {
			cut--
		}
		detail = detail[:cut]
	}
	buf := make([]byte, 0, 4+len(detail))
	buf = append(buf, statusReject, byte(code))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(detail)))
	buf = append(buf, detail...)
	_, err := w.Write(buf)
	return err
}

// AwaitGrant reads the reply to a hello: the grant on admission, a
// *RejectedError (classified under ErrRejected) on a typed refusal. The
// timeout bounds the whole wait — a saturated server parks the connection
// in its admission queue and answers only once a slot frees, so this
// deadline is the dialer's backpressure patience. The read deadline is
// cleared after a grant so the session owns the connection afterwards.
func AwaitGrant(conn net.Conn, timeout time.Duration) (Grant, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Grant{}, err
	}
	g, err := parseGrant(conn)
	if err != nil {
		return Grant{}, err
	}
	return g, conn.SetReadDeadline(time.Time{})
}

// parseGrant is the one reply decoder: a grant, or the reject frame as a
// *RejectedError.
func parseGrant(r io.Reader) (Grant, error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return Grant{}, fmt.Errorf("netid: reading hello reply: %w", err)
	}
	switch status[0] {
	case statusGrant:
		var body [17]byte
		if _, err := io.ReadFull(r, body[:]); err != nil {
			return Grant{}, fmt.Errorf("netid: reading grant: %w", err)
		}
		if body[0] < 1 || body[0] > MaxShards {
			return Grant{}, fmt.Errorf("netid: invalid shard count %d", body[0])
		}
		return Grant{
			Shards: int(body[0]),
			Sent:   binary.BigEndian.Uint64(body[1:9]),
			Recv:   binary.BigEndian.Uint64(body[9:17]),
		}, nil
	case statusReject:
		var hdr [3]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return Grant{}, fmt.Errorf("netid: reading reject frame: %w", err)
		}
		n := binary.BigEndian.Uint16(hdr[1:3])
		if n > maxRejectDetail {
			return Grant{}, fmt.Errorf("netid: reject detail length %d exceeds %d", n, maxRejectDetail)
		}
		detail := make([]byte, n)
		if _, err := io.ReadFull(r, detail); err != nil {
			return Grant{}, fmt.Errorf("netid: reading reject detail: %w", err)
		}
		return Grant{}, &RejectedError{Code: RejectCode(hdr[0]), Detail: string(detail)}
	default:
		return Grant{}, fmt.Errorf("netid: invalid hello reply status %d", status[0])
	}
}

// AnnounceShardRegistrationWithin sends the registration hello a
// coordinator opens a shard-worker link with: shard in [0, MaxShards), the
// proposed transport epoch and the coordinator's frame watermarks.
func AnnounceShardRegistrationWithin(conn net.Conn, name, session string, shard int, epoch uint32, sent, recv uint64, timeout time.Duration) error {
	return SendHello(conn, Hello{Name: name, Session: session, Purpose: PurposeRegister,
		Lane: shard + 1, Epoch: epoch, Sent: sent, Recv: recv}, timeout)
}

// AwaitResumeGrant is AwaitGrant reduced to the grant's watermarks.
func AwaitResumeGrant(conn net.Conn, timeout time.Duration) (sent, recv uint64, err error) {
	g, err := AwaitGrant(conn, timeout)
	return g.Sent, g.Recv, err
}

// RejectCode types the reason an admission was refused, so holders and
// their supervisors can branch without parsing free text.
type RejectCode byte

const (
	// RejectCapacity: the server is at -max-sessions with no admission
	// queue configured (or the queue is disabled for this class).
	RejectCapacity RejectCode = iota + 1
	// RejectQueueFull: the server is saturated and the bounded admission
	// queue is full — the backpressure limit, never a silent hang.
	RejectQueueFull
	// RejectBudget: admitting the session would exceed the server's global
	// resource budget.
	RejectBudget
	// RejectDraining: the server is draining for shutdown and admits no
	// new work. Retryable — a restarted server will accept again.
	RejectDraining
	// RejectVersion: the hello's version is not Version, or its purpose is
	// one this acceptor does not serve.
	RejectVersion
	// RejectSession: the session ID or lane is invalid or conflicts with
	// session state (e.g. the session already failed).
	RejectSession
	// RejectUnknownHolder: the announced name is not one of the holders
	// this acceptor expects.
	RejectUnknownHolder
	// RejectDuplicateHolder: this session already has a connection for the
	// announced holder name.
	RejectDuplicateHolder
	// RejectTimeout: the session did not gather all of its holders within
	// the server's gather deadline; its parked connections are refused.
	RejectTimeout
	// RejectResume: a resume hello was refused — the session or lane is
	// unknown, the session already aborted, or the offered watermarks are
	// stale/backward relative to the server's. Not retryable: the streamed
	// state the resume depends on is gone.
	RejectResume
)

// String names the code as it appears in reject frames, logs and metrics.
func (c RejectCode) String() string {
	switch c {
	case RejectCapacity:
		return "capacity"
	case RejectQueueFull:
		return "queue-full"
	case RejectBudget:
		return "budget"
	case RejectDraining:
		return "draining"
	case RejectVersion:
		return "version"
	case RejectSession:
		return "session"
	case RejectUnknownHolder:
		return "unknown-holder"
	case RejectDuplicateHolder:
		return "duplicate-holder"
	case RejectTimeout:
		return "gather-timeout"
	case RejectResume:
		return "resume"
	default:
		return fmt.Sprintf("code-%d", byte(c))
	}
}

// ErrRejected classifies every admission refusal; test with errors.Is and
// errors.As (*RejectedError) for the typed code.
var ErrRejected = errors.New("netid: admission refused")

// RejectedError is a typed admission refusal, carried by the reject frame.
type RejectedError struct {
	Code   RejectCode
	Detail string
}

func (e *RejectedError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("netid: admission refused (%s)", e.Code)
	}
	return fmt.Sprintf("netid: admission refused (%s): %s", e.Code, e.Detail)
}

// Unwrap ties every refusal to the ErrRejected class.
func (e *RejectedError) Unwrap() error { return ErrRejected }

// Retryable reports whether re-dialing later can reasonably succeed: a
// draining server is being replaced, so holders racing a restart should
// back off and reconnect rather than exit.
func (e *RejectedError) Retryable() bool { return e.Code == RejectDraining }

package netflood

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"
	"unsafe"
)

// frame is the wire envelope: a hello (link handshake identifying the
// dialing node), a flooded message, or — in reliable mode — an ack whose
// Msg carries only the (src, seq) identity being acknowledged.
type frame struct {
	Kind string // "hello", "msg" or "ack"
	From int
	Msg  *Message
}

// Frame kinds as they travel in a frame's first body byte, and their names.
const (
	kindHello byte = 1 + iota
	kindMsg
	kindAck
)

var kindNames = [...]string{kindHello: "hello", kindMsg: "msg", kindAck: "ack"}

const (
	// maxFrame bounds a frame body to keep a corrupted length prefix from
	// allocating unbounded memory.
	maxFrame = 1 << 20
	// maxHeader is the longest body before a msg frame's payload: the kind
	// byte and five varints.
	maxHeader = 1 + 5*binary.MaxVarintLen64
)

// encodeFrame returns f's wire form: a 4-byte big-endian body length, then
// the body. The body is the kind byte and From; msg and ack frames add Src
// and Seq; a msg frame adds Hops and Budget and ends with the raw payload
// bytes. Every integer is a minimal-length zigzag varint, so each frame has
// exactly one encoding.
func encodeFrame(f frame) ([]byte, error) {
	kind := byte(slices.Index(kindNames[1:], f.Kind) + 1)
	if kind == 0 {
		return nil, fmt.Errorf("netflood: unknown frame kind %q", f.Kind)
	}
	size := 4 + maxHeader
	if kind == kindMsg {
		size += len(f.Msg.Payload)
	}
	buf := make([]byte, 5, size)
	buf[4] = kind
	buf = binary.AppendVarint(buf, int64(f.From))
	if kind != kindHello {
		buf = binary.AppendVarint(buf, int64(f.Msg.Src))
		buf = binary.AppendVarint(buf, int64(f.Msg.Seq))
	}
	if kind == kindMsg {
		buf = binary.AppendVarint(buf, int64(f.Msg.Hops))
		buf = binary.AppendVarint(buf, int64(f.Msg.Budget))
		buf = append(buf, f.Msg.Payload...)
	}
	if body := len(buf) - 4; body > maxFrame {
		return nil, fmt.Errorf("netflood: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// writeFrame writes one frame on the link, holding the peer's write lock so
// frames never interleave, with a per-frame write deadline.
func writeFrame(p *peerConn, f frame, timeout time.Duration) error {
	buf, err := encodeFrame(f)
	if err != nil {
		return err
	}
	return p.write(buf, timeout)
}

// writeFrameTo writes one frame directly on a conn (handshake path, before
// the link's peerConn exists), with the same framing and deadline.
func writeFrameTo(conn net.Conn, f frame, timeout time.Duration) error {
	return writeFrame(&peerConn{conn: conn}, f, timeout)
}

// write sends one encoded frame in one Write call (faultnet's unit of loss)
// under the peer's write lock and an optional deadline.
func (p *peerConn) write(buf []byte, timeout time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil || p.dead {
		return errors.New("netflood: link down")
	}
	if timeout > 0 {
		_ = p.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if _, err := p.conn.Write(buf); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			mNetWriteTOs.Inc()
		}
		return err
	}
	return nil
}

// readFrame reads one frame, checking its length against maxFrame before
// allocating the body. An unknown kind, a truncated, non-minimal or
// out-of-range varint, or bytes past a hello's or ack's fields is an error.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxFrame {
		return frame{}, fmt.Errorf("netflood: frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	if size == 0 || body[0] == 0 || int(body[0]) >= len(kindNames) {
		return frame{}, errors.New("netflood: decode frame: no known kind byte")
	}
	f, rest, bad := frame{Kind: kindNames[body[0]]}, body[1:], false
	next := func() int {
		v, n := binary.Varint(rest)
		if bad = bad || n <= 0 || (n > 1 && rest[n-1] == 0) || int64(int(v)) != v; bad {
			return 0
		}
		rest = rest[n:]
		return int(v)
	}
	f.From = next()
	if f.Kind != "hello" {
		f.Msg = &Message{Src: next(), Seq: next()}
	}
	if f.Kind == "msg" {
		f.Msg.Hops, f.Msg.Budget = next(), next()
		if !bad && len(rest) > 0 {
			// The payload is the body's tail: sharing it saves a copy, and
			// nothing writes to body again.
			f.Msg.Payload, rest = unsafe.String(&rest[0], len(rest)), nil
		}
	}
	if bad || len(rest) > 0 {
		return frame{}, fmt.Errorf("netflood: decode %s frame: bad varint or %d trailing bytes", f.Kind, len(rest))
	}
	return f, nil
}

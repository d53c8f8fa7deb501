// Package repl replicates a registry by shipping its write-ahead log: a
// primary's Source streams the newest snapshot plus the live WAL tail to
// any number of Followers, each of which persists the raw frames locally
// (byte-identical to the primary's segments), applies them in batches
// through the registry's replay path, and serves reads from its own store.
// The Drop is a read-amplification event — thousands of drop-catch clients
// hammer RDAP/WHOIS/pending-delete surfaces around the deletion second
// while one process decides FCFS winners — and WAL shipping moves that read
// load onto replicas without forking the write path: there is exactly one
// mutation stream, and a replica's state at sequence N is provably the
// primary's state at sequence N.
//
// The wire protocol is deliberately dumb: a fixed handshake, then
// length-prefixed messages one side at a time. No negotiation, no
// compression, no multi-stream — segment bytes are already compact, and a
// follower that needs something other than "everything after sequence X"
// does not exist.
package repl

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Wire format. The follower opens with a fixed 8-byte magic and the highest
// sequence number it already holds (0 = fresh, send a snapshot if one
// exists). Both directions then speak length-prefixed messages:
//
//	u8 type · u32 payload length (little-endian) · payload
//
// Primary → follower: snapshot transfer (begin/chunk/end), frame batches,
// heartbeats, a terminal error. Follower → primary: applied-sequence acks.
// Frame-batch payloads carry the primary's segment bytes verbatim; the
// follower re-validates every frame (length, CRC, sequence contiguity)
// before applying, so transport corruption kills the connection, never the
// state.
const (
	handshakeMagic = "DZREPL1\n"

	msgSnapBegin byte = 1 // u64 seq · u64 total size
	msgSnapChunk byte = 2 // raw snapshot file bytes
	msgSnapEnd   byte = 3 // (empty)
	msgFrames    byte = 4 // u64 first · u64 last · u64 primary last seq · i64 sent unix nanos · raw WAL frames
	msgHeartbeat byte = 5 // u64 durable seq · i64 sent unix nanos
	msgError     byte = 6 // utf-8 message, terminal
	msgAck       byte = 7 // u64 applied seq (follower → primary)

	msgHeader      = 5        // type + length
	framesHeader   = 32       // the four u64/i64 fields before the raw frames
	heartbeatBody  = 16       // durable + sent
	snapBeginBody  = 16       // seq + size
	maxMessageSize = 80 << 20 // > journal's 64 MiB record bound, with headroom
)

// writeMsg frames and writes one message. msg buffers are assembled by the
// caller with msgHeader bytes reserved up front so hot-path sends are one
// Write with no copy.
func writeMsg(conn net.Conn, timeout time.Duration, typ byte, msg []byte) error {
	if len(msg) < msgHeader {
		return fmt.Errorf("repl: message buffer missing header room")
	}
	msg[0] = typ
	binary.LittleEndian.PutUint32(msg[1:5], uint32(len(msg)-msgHeader))
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(msg)
	return err
}

// readMsg reads one message, reusing buf when it is large enough. The
// returned payload aliases the read buffer and is valid until the next
// call.
func readMsg(conn net.Conn, timeout time.Duration, buf []byte) (typ byte, payload []byte, nextBuf []byte, err error) {
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, nil, buf, err
		}
	}
	var hdr [msgHeader]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxMessageSize {
		return 0, nil, buf, fmt.Errorf("repl: message of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, nil, buf, err
	}
	return hdr[0], payload, buf, nil
}

// sendError ships a terminal protocol error to the peer, best effort.
func sendError(conn net.Conn, timeout time.Duration, err error) {
	text := err.Error()
	msg := make([]byte, msgHeader+len(text))
	copy(msg[msgHeader:], text)
	writeMsg(conn, timeout, msgError, msg)
}

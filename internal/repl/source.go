package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
)

// SourceConfig configures the primary side of replication. The zero value
// is an asynchronous source that logs nothing.
type SourceConfig struct {
	// SyncFollowers, when positive, arms semi-synchronous replication:
	// WaitSynced(seq) blocks until that many followers have acknowledged
	// applying and locally fsyncing seq. Zero leaves replication fully
	// asynchronous and WaitSynced a no-op.
	SyncFollowers int
	// Logf receives connection lifecycle lines; nil discards them.
	Logf func(format string, args ...any)

	// Test seams, zero meaning the default: small batches ship a tail
	// incrementally, a short timeout fails a quorum wait fast.
	batchBytes  int
	syncTimeout time.Duration
}

const (
	// defaultBatchBytes caps the raw frame bytes per msgFrames message. A
	// batch is also bounded by what is durable: the source wakes per group
	// commit and ships whatever landed, so batch boundaries align with
	// commit boundaries under load.
	defaultBatchBytes = 512 << 10
	// snapChunkBytes caps one snapshot chunk message.
	snapChunkBytes = 256 << 10
	// heartbeat is the idle keepalive interval. Heartbeats carry the
	// durable horizon so an idle follower still measures lag.
	heartbeat = 500 * time.Millisecond
	// writeTimeout bounds every message write; a follower that stops
	// draining is disconnected rather than wedging the source.
	writeTimeout = 10 * time.Second
	// defaultSyncTimeout bounds one WaitSynced call. On expiry the mutation
	// stays durable on the primary but unacknowledged — the caller reports
	// failure, exactly the no-overclaim contract sync mode has locally.
	defaultSyncTimeout = 10 * time.Second
)

func (c *SourceConfig) defaults() {
	if c.batchBytes <= 0 {
		c.batchBytes = defaultBatchBytes
	}
	if c.syncTimeout <= 0 {
		c.syncTimeout = defaultSyncTimeout
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Source is the primary side of replication: it serves each follower
// connection the newest snapshot (fresh followers only), then the WAL from
// the follower's position onward, reusing the journal's segment files as
// the wire encoding and tailing the live log via group-commit flush
// notifications. One goroutine per follower streams; one more reads acks.
type Source struct {
	*serve.Conns // Listen and ServeErr

	j        *journal.Journal
	cfg      SourceConfig
	stop     chan struct{} // closed by Close; wakes idle stream loops
	stopOnce sync.Once

	// ackMu guards follower acknowledgement state and the semi-sync
	// waiters. Never held while writing to a connection. ackClosed mirrors
	// closure into this lock domain so WaitSynced fails fast at shutdown.
	ackMu     sync.Mutex
	peers     map[net.Conn]*peer
	waiters   map[*syncWaiter]struct{}
	ackClosed bool

	shippedRecords atomic.Uint64
	shippedBytes   atomic.Uint64
	snapshotsSent  atomic.Uint64
	connects       atomic.Uint64
	followers      atomic.Int64
}

// peer is one follower connection's replication position.
type peer struct {
	acked uint64        // the highest sequence it acknowledged; ackMu held
	sent  atomic.Uint64 // the last sequence its stream has written or is writing
}

type syncWaiter struct {
	seq  uint64
	need int
	err  error         // written before done closes; read after
	done chan struct{} // closed when resolved (quorum or source closure)
}

// NewSource wraps j as a replication primary. Call Listen (or ServeConn for
// in-process transports) to start serving followers, Close to stop.
func NewSource(j *journal.Journal, cfg SourceConfig) *Source {
	cfg.defaults()
	s := &Source{
		j:     j,
		cfg:   cfg,
		stop:  make(chan struct{}),
		peers: make(map[net.Conn]*peer),
	}
	s.Conns = serve.NewConns("repl", s.follow)
	return s
}

// ServeConn serves one follower on conn in background goroutines and
// returns immediately. It owns conn and closes it when the stream ends.
func (s *Source) ServeConn(conn net.Conn) { go s.Conns.ServeConn(conn) }

// follow runs one follower connection: its stream, then the teardown that
// waits for the stream's ack reader.
func (s *Source) follow(conn net.Conn) {
	s.connects.Add(1)
	s.followers.Add(1)
	defer s.followers.Add(-1)
	var acks sync.WaitGroup
	err := s.serve(conn, &acks)
	if err != nil && err != io.EOF {
		s.cfg.Logf("repl: follower %v: %v", conn.RemoteAddr(), err)
		sendError(conn, writeTimeout, err)
	}
	conn.Close()
	acks.Wait()
	s.ackMu.Lock()
	delete(s.peers, conn)
	s.ackMu.Unlock()
}

// serve runs one follower stream to completion; acks counts its ack reader.
func (s *Source) serve(conn net.Conn, acks *sync.WaitGroup) error {
	// Handshake: magic + the follower's position.
	var hs [len(handshakeMagic) + 8]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if string(hs[:len(handshakeMagic)]) != handshakeMagic {
		return fmt.Errorf("handshake: bad magic")
	}
	afterSeq := binary.LittleEndian.Uint64(hs[len(handshakeMagic):])
	// Nothing this primary shipped can put a follower past its log: one that
	// is ahead holds another primary's history, which no record from here
	// may extend.
	if last := s.j.LastSeq(); afterSeq > last {
		return fmt.Errorf("follower at seq %d is ahead of this primary's log at seq %d", afterSeq, last)
	}
	conn.SetReadDeadline(time.Time{}) // ack reads are unbounded; heartbeats police liveness on the follower side

	// Pin the follower's position against segment pruning for the life of
	// the stream, then decide how to start. A fresh follower (position 0)
	// gets the newest snapshot when one exists — streaming history from
	// sequence 1 would defeat pruning entirely. A resuming follower has a
	// live store that only the WAL can advance (RestoreSnapshot needs an
	// empty store), so it always gets WAL-only; if pruning already ate its
	// position the stream fails loudly and the operator re-seeds.
	release := s.j.Retain(afterSeq)
	defer release()

	start := afterSeq
	if afterSeq == 0 {
		snapSeq, err := s.sendSnapshot(conn)
		if err != nil {
			return err
		}
		start = snapSeq
	}

	// Register the follower's proven position and what it has been sent,
	// then start the ack reader: the only legal follower→primary traffic
	// after the handshake. Its connection errors surface on the stream side
	// as write failures, so that goroutine just exits.
	p := &peer{acked: afterSeq}
	p.sent.Store(start)
	s.ackMu.Lock()
	s.peers[conn] = p
	s.ackMu.Unlock()
	acks.Add(1)
	go func() {
		defer acks.Done()
		s.readAcks(conn, p)
	}()

	tr := journal.NewTailReader(s.j.Dir(), start)
	defer tr.Close()
	watch, cancel := s.j.WatchDurable()
	defer cancel()

	hb := time.NewTimer(heartbeat)
	defer hb.Stop()
	var (
		msg         []byte
		first, last uint64
		err         error
		hdrZero     [msgHeader + framesHeader]byte
	)
	for {
		durable := s.j.DurableSeq()
		msg = append(msg[:0], hdrZero[:]...)
		msg, first, last, err = tr.Next(msg, durable, s.cfg.batchBytes)
		if err != nil {
			return err
		}
		if last > 0 {
			binary.LittleEndian.PutUint64(msg[msgHeader:], first)
			binary.LittleEndian.PutUint64(msg[msgHeader+8:], last)
			binary.LittleEndian.PutUint64(msg[msgHeader+16:], s.j.LastSeq())
			binary.LittleEndian.PutUint64(msg[msgHeader+24:], uint64(time.Now().UnixNano()))
			// Before the write: a fast follower's ack of this batch can
			// arrive before writeMsg returns.
			p.sent.Store(last)
			if err := writeMsg(conn, writeTimeout, msgFrames, msg); err != nil {
				return err
			}
			s.shippedRecords.Add(last - first + 1)
			s.shippedBytes.Add(uint64(len(msg) - msgHeader - framesHeader))
			continue // drain the backlog before sleeping
		}
		select {
		case <-s.stop:
			return io.EOF
		case <-watch:
		case <-hb.C:
			var b [msgHeader + heartbeatBody]byte
			binary.LittleEndian.PutUint64(b[msgHeader:], durable)
			binary.LittleEndian.PutUint64(b[msgHeader+8:], uint64(time.Now().UnixNano()))
			if err := writeMsg(conn, writeTimeout, msgHeartbeat, b[:]); err != nil {
				return err
			}
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(heartbeat)
	}
}

// sendSnapshot streams the newest snapshot file to a fresh follower and
// returns the sequence it covers (0 when no snapshot exists yet — the WAL
// alone carries the full history then). The file is opened before anything
// slow happens: once open, a concurrent prune can unlink it without
// affecting the transfer.
func (s *Source) sendSnapshot(conn net.Conn) (uint64, error) {
	path, seq, ok, err := journal.LatestSnapshotPath(s.j.Dir())
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("repl: open snapshot: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("repl: stat snapshot: %w", err)
	}

	var begin [msgHeader + snapBeginBody]byte
	binary.LittleEndian.PutUint64(begin[msgHeader:], seq)
	binary.LittleEndian.PutUint64(begin[msgHeader+8:], uint64(info.Size()))
	if err := writeMsg(conn, writeTimeout, msgSnapBegin, begin[:]); err != nil {
		return 0, err
	}
	chunk := make([]byte, msgHeader+snapChunkBytes)
	for {
		n, rerr := f.Read(chunk[msgHeader:])
		if n > 0 {
			if err := writeMsg(conn, writeTimeout, msgSnapChunk, chunk[:msgHeader+n]); err != nil {
				return 0, err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, fmt.Errorf("repl: read snapshot: %w", rerr)
		}
	}
	if err := writeMsg(conn, writeTimeout, msgSnapEnd, make([]byte, msgHeader)); err != nil {
		return 0, err
	}
	s.snapshotsSent.Add(1)
	return seq, nil
}

// readAcks consumes follower acknowledgements from p's connection until it
// dies, waking any semi-sync waiter the new position satisfies. An ack of a
// sequence the stream has not sent is not counted: it closes the connection.
func (s *Source) readAcks(conn net.Conn, p *peer) {
	var buf []byte
	for {
		typ, payload, next, err := readMsg(conn, 0, buf)
		if err != nil {
			return
		}
		buf = next
		if typ != msgAck || len(payload) != 8 {
			return
		}
		seq := binary.LittleEndian.Uint64(payload)
		if sent := p.sent.Load(); seq > sent {
			s.cfg.Logf("repl: follower %v: ack of seq %d, but only seq %d was sent; closing", conn.RemoteAddr(), seq, sent)
			conn.Close()
			return
		}
		s.ackMu.Lock()
		// Counted only while registered: the teardown unregisters p, so a
		// final ack racing it cannot resurrect a dead follower into the quorum.
		p.acked = max(p.acked, seq)
		for w := range s.waiters {
			if s.ackQuorumLocked(w.seq) >= w.need {
				close(w.done)
				delete(s.waiters, w)
			}
		}
		s.ackMu.Unlock()
	}
}

// ackQuorumLocked counts followers that have acknowledged seq. ackMu held.
func (s *Source) ackQuorumLocked(seq uint64) int {
	n := 0
	for _, p := range s.peers {
		if p.acked >= seq {
			n++
		}
	}
	return n
}

// WaitSynced blocks until SyncFollowers followers have acknowledged
// applying and locally persisting seq, defaultSyncTimeout expires,
// or the source closes. With SyncFollowers zero it returns immediately —
// replication is asynchronous and acks are telemetry only.
func (s *Source) WaitSynced(seq uint64) error {
	if s.cfg.SyncFollowers <= 0 {
		return nil
	}
	s.ackMu.Lock()
	if s.ackClosed {
		s.ackMu.Unlock()
		return fmt.Errorf("repl: source closed before seq %d was acknowledged", seq)
	}
	if s.ackQuorumLocked(seq) >= s.cfg.SyncFollowers {
		s.ackMu.Unlock()
		return nil
	}
	w := &syncWaiter{seq: seq, need: s.cfg.SyncFollowers, done: make(chan struct{})}
	if s.waiters == nil {
		s.waiters = make(map[*syncWaiter]struct{})
	}
	s.waiters[w] = struct{}{}
	s.ackMu.Unlock()

	t := time.NewTimer(s.cfg.syncTimeout)
	defer t.Stop()
	select {
	case <-w.done:
		return w.err
	case <-t.C:
		s.ackMu.Lock()
		_, pending := s.waiters[w]
		delete(s.waiters, w)
		closed := s.ackClosed
		s.ackMu.Unlock()
		if !pending { // satisfied in the race with the timer
			return nil
		}
		if closed {
			return fmt.Errorf("repl: source closed before seq %d was acknowledged", seq)
		}
		return fmt.Errorf("repl: no follower quorum for seq %d within %v", seq, s.cfg.syncTimeout)
	}
}

// failWaiters mirrors closure into the ack domain so WaitSynced callers
// blocked at close time fail instead of running out their timeout.
func (s *Source) failWaiters() {
	s.ackMu.Lock()
	s.ackClosed = true
	for w := range s.waiters {
		w.err = fmt.Errorf("repl: source closed before seq %d was acknowledged", w.seq)
		close(w.done)
		delete(s.waiters, w)
	}
	s.ackMu.Unlock()
}

// Close stops the listener, severs every follower connection (abruptly —
// followers reconnect or get promoted, they do not drain), fails pending
// semi-sync waiters and waits for the serving goroutines.
func (s *Source) Close() error {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.failWaiters()
	})
	return s.Conns.Close()
}

// SourceMetrics is a point-in-time reading of the primary's replication
// counters, shaped for expvar publication and the shutdown summary.
type SourceMetrics struct {
	Followers      int
	MinAckedSeq    uint64 // 0 when no follower has acked
	ShippedRecords uint64
	ShippedBytes   uint64
	SnapshotsSent  uint64
	Connects       uint64
}

// Metrics returns current counters.
func (s *Source) Metrics() SourceMetrics {
	m := SourceMetrics{
		ShippedRecords: s.shippedRecords.Load(),
		ShippedBytes:   s.shippedBytes.Load(),
		SnapshotsSent:  s.snapshotsSent.Load(),
		Connects:       s.connects.Load(),
	}
	m.Followers = int(s.followers.Load())
	s.ackMu.Lock()
	for _, p := range s.peers {
		if m.MinAckedSeq == 0 || p.acked < m.MinAckedSeq {
			m.MinAckedSeq = p.acked
		}
	}
	s.ackMu.Unlock()
	return m
}

// SyncJournal chains the journal's durability wait with follower
// acknowledgement: a mutation is acknowledged to its caller only after it
// is fsynced locally AND WaitSynced's follower quorum holds it. Attach via
// store.SetJournal in place of the bare journal to get zero-acked-loss
// failover — any mutation a client saw succeed is on a follower that can be
// promoted. Requires the journal in sync mode: an async journal hands out
// no wait, and semi-sync without local durability would be incoherent, so
// over one every mutation's wait fails with errSyncJournalAsync.
type SyncJournal struct {
	J *journal.Journal
	S *Source
}

// errSyncJournalAsync is the wait of every mutation appended through a
// SyncJournal whose journal is not in sync mode.
var errSyncJournalAsync = errors.New("repl: SyncJournal over a journal not in sync mode: nothing to acknowledge to followers")

// Append implements registry.Journal.
func (sj *SyncJournal) Append(m registry.Mutation) func() error {
	seq, wait := sj.J.AppendMutation(m)
	if wait == nil {
		return func() error { return errSyncJournalAsync }
	}
	return func() error {
		if err := wait(); err != nil {
			return err
		}
		return sj.S.WaitSynced(seq)
	}
}

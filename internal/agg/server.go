package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/trace"
)

// Server accepts producer and query connections and feeds the Store.
//
// Ingestion path per connection: the read loop validates the handshake,
// then moves trace frames into a bounded queue drained by one worker
// goroutine. The reader never blocks on aggregation — when the queue is
// full the frame is dropped and charged to the producer's drop counters
// (the PR 5 drop-new contract at fleet scope: degradation is explicit,
// accounted and queryable, never silent, and one slow frame apply cannot
// backpressure the socket into stalling the producer's bye/health
// control frames).
//
// A FrameBye closes the queue and waits for the worker to drain it
// before recording the producer's accounting, so at the moment a bye is
// visible, ingested + dropped == sent holds exactly for that producer.
type Server struct {
	store *Store
	opts  ServerOpts

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// ackMu guards the live producer ack writers, keyed by process, so a
	// completed snapshot can broadcast the new durable watermarks without
	// waiting for the next frame of each producer.
	ackMu sync.Mutex
	acks  map[string]map[*ackWriter]struct{}

	// snapshot loop state (SnapshotEvery).
	snapStop chan struct{}
	snapDone chan struct{}
}

// ServerOpts configures a Server; the zero value selects the defaults.
type ServerOpts struct {
	// Queue bounds each connection's pending trace frames (default 64).
	Queue int
	// IdleTimeout bounds how long an established connection may sit
	// between frames (default 2 minutes; < 0 disables). Without it a
	// stalled producer — or a slow-loris client that completes the
	// handshake and then goes quiet — pins its goroutine, queue and
	// connection forever; the handshake timeout alone only covers the
	// time before hello.
	IdleTimeout time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// NewServer creates a server over store.
func NewServer(store *Store, opts ServerOpts) *Server {
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 2 * time.Minute
	}
	return &Server{store: store, opts: opts, conns: map[net.Conn]struct{}{}, acks: map[string]map[*ackWriter]struct{}{}}
}

// Serve accepts connections on ln until Close. It returns nil after a
// Close-initiated shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed.Load()
	s.mu.Unlock()
	if closed {
		// Close ran before the listener was known to it.
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Register under mu after a closed check: Close sets closed before
		// it snapshots conns under mu, so a connection is either in its
		// snapshot (and closed by it) or refused here — never left open
		// for wg.Wait to sit out its idle timeout.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, waits for their
// workers to drain, and stops the snapshot loop (if one is running). The
// drain is what makes SIGTERM graceful: every frame already queued is
// applied and accounted before Close returns, so a final snapshot taken
// after Close captures the complete state.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
		s.snapStop = nil
	}
	return err
}

// SnapshotEvery starts a loop persisting the store to path every
// interval, acking the fresh durable watermarks to live producers after
// each write. It flips the store into durable-ack mode first, so no ack
// ever runs ahead of the snapshot file. Close stops the loop; callers
// should take one final SnapshotNow after Close to capture the drained
// state.
func (s *Server) SnapshotEvery(path string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.store.SetDurable(true)
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func() {
		defer close(s.snapDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.SnapshotNow(path); err != nil {
					s.logf("agg: snapshot: %v", err)
				}
			case <-s.snapStop:
				return
			}
		}
	}()
}

// SnapshotNow persists one snapshot to path and broadcasts the new
// durable watermarks.
func (s *Server) SnapshotNow(path string) error {
	durable, err := s.store.WriteSnapshot(path)
	if err != nil {
		return err
	}
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	for process, seq := range durable {
		for aw := range s.acks[process] {
			aw.ack(seq)
		}
	}
	return nil
}

// ackWriter serialises server→producer frames on one connection (the
// hello ack, then FrameAcks from the worker and snapshot broadcaster).
// Writes carry a deadline: a producer that stopped reading must not
// wedge the worker — its connection dies instead, and the frames it
// never acked will be resent and deduplicated.
type ackWriter struct {
	mu   sync.Mutex
	conn net.Conn
	fw   *trace.FrameWriter
}

func (aw *ackWriter) ack(seq uint64) {
	payload, _ := json.Marshal(Ack{Seq: seq})
	aw.mu.Lock()
	defer aw.mu.Unlock()
	aw.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if aw.fw.Frame(FrameAck, payload) != nil {
		aw.conn.Close()
	}
	aw.conn.SetWriteDeadline(time.Time{})
}

func (s *Server) registerAck(process string, aw *ackWriter) {
	s.ackMu.Lock()
	if s.acks[process] == nil {
		s.acks[process] = map[*ackWriter]struct{}{}
	}
	s.acks[process][aw] = struct{}{}
	s.ackMu.Unlock()
}

func (s *Server) unregisterAck(process string, aw *ackWriter) {
	s.ackMu.Lock()
	delete(s.acks[process], aw)
	if len(s.acks[process]) == 0 {
		delete(s.acks, process)
	}
	s.ackMu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// handshakeTimeout bounds how long a connection may dawdle before its
// hello; it keeps a wedged client from pinning goroutines forever.
const handshakeTimeout = 30 * time.Second

// handle runs one connection from magic to close.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))

	var magicBuf [len(Magic)]byte
	if _, err := io.ReadFull(conn, magicBuf[:]); err != nil || string(magicBuf[:]) != Magic {
		s.logf("agg: %s: not a TESLAAGG stream", conn.RemoteAddr())
		return
	}
	fr := trace.NewFrameReader(conn)
	fw := trace.NewFrameWriter(conn)

	kind, payload, err := fr.Next()
	if err != nil || kind != FrameHello {
		s.logf("agg: %s: expected hello frame, got kind %d (%v)", conn.RemoteAddr(), kind, err)
		return
	}
	var hello Hello
	if err := json.Unmarshal(payload, &hello); err != nil {
		s.logf("agg: %s: bad hello: %v", conn.RemoteAddr(), err)
		return
	}
	if hello.Proto != ProtoVersion || hello.Codec != trace.Version {
		// Version negotiation: reject at the handshake with both sides'
		// versions and the producing tool named — an old producer is
		// never accepted and then killed mid-stream by a codec error.
		msg := rejectHello(hello)
		ack, _ := json.Marshal(HelloAck{OK: false, Message: msg, Proto: ProtoVersion, Codec: trace.Version})
		fw.Frame(FrameHelloAck, ack)
		s.logf("agg: %s: rejected: %s", conn.RemoteAddr(), msg)
		return
	}
	ackFrame := HelloAck{OK: true, Proto: ProtoVersion, Codec: trace.Version}
	if !hello.Query {
		// The resume watermark: a reconnecting producer prunes its
		// resend set to seq > Ack before sending anything.
		ackFrame.Ack = s.store.AckSeq(producerName(hello))
	}
	ack, _ := json.Marshal(ackFrame)
	if err := fw.Frame(FrameHelloAck, ack); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	if hello.Query {
		s.serveQueries(conn, fr, fw)
		return
	}
	s.serveProducer(hello, conn, fr, fw)
}

func producerName(h Hello) string {
	if h.Process == "" {
		return "unnamed"
	}
	return h.Process
}

// idleDeadline arms (or clears, when disabled) the per-frame read
// deadline on an established connection.
func (s *Server) idleDeadline(conn net.Conn) {
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
}

// frameJob is one unit of worker-queue work for a producer connection: a
// sequenced trace frame to apply, or (payload == nil) a drop marker for a
// frame the queue rejected. Drop markers flow through the queue — blocking,
// unlike frames — so apply and drop accounting reach the store in
// arrival order and the applied watermark stays monotonic; a read-time
// drop racing the worker could otherwise be snapshotted before the
// frames that preceded it. frame is the read buffer that holds payload;
// the worker hands it back to the reader once the frame is applied.
type frameJob struct {
	seq     uint64
	events  uint64
	payload []byte
	frame   []byte
}

// maxReusedFrame caps the frame buffers a connection recycles: one
// oversized frame must not pin its buffer for the connection's lifetime.
const maxReusedFrame = 1 << 20

// reusable returns b if it is small enough to recycle, else nil.
func reusable(b []byte) []byte {
	if cap(b) > maxReusedFrame {
		return nil
	}
	return b
}

// serveProducer runs the ingestion loop for one producer connection.
func (s *Server) serveProducer(hello Hello, conn net.Conn, fr *trace.FrameReader, fw *trace.FrameWriter) {
	process := producerName(hello)
	s.store.Connected(Hello{Process: process, Tool: hello.Tool})

	aw := &ackWriter{conn: conn, fw: fw}
	s.registerAck(process, aw)
	defer s.unregisterAck(process, aw)

	queue := make(chan frameJob, s.opts.Queue)
	// free carries applied frames' buffers back to the reader, which reads
	// the next frames into them instead of allocating a buffer per frame.
	free := make(chan []byte, s.opts.Queue)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for job := range queue {
			if job.payload == nil {
				s.store.DropSeqFrame(process, job.seq, job.events)
			} else if err := s.store.ApplySeqFrame(process, job.seq, job.payload); err != nil {
				s.logf("%v", err)
			}
			if b := reusable(job.frame); b != nil {
				select {
				case free <- b:
				default:
				}
			}
			aw.ack(s.store.AckSeq(process))
		}
	}()

	clean := false
	drained := false
	// spare is the buffer the next frame is read into: a frame that is
	// not queued leaves its own, else one comes back through free.
	var spare []byte
loop:
	for {
		if spare == nil {
			select {
			case spare = <-free:
			default:
			}
		}
		s.idleDeadline(conn)
		kind, payload, err := fr.NextInto(spare)
		spare = reusable(payload)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("agg: %s: read: %v", process, err)
			}
			break
		}
		switch kind {
		case FrameSeqTrace:
			seq, events, tracePayload, err := SeqTraceInfo(payload)
			if err != nil {
				s.logf("agg: %s: %v", process, err)
				s.store.DropFrame(process, 0)
				continue
			}
			if !s.store.BeginSeqFrame(process, seq, events) {
				// Duplicate resend: already applied (or restored from a
				// snapshot covering it). Re-ack so the client prunes it.
				aw.ack(s.store.AckSeq(process))
				continue
			}
			select {
			case queue <- frameJob{seq: seq, events: events, payload: tracePayload, frame: payload}:
				spare = nil // the worker owns it until applied
			default:
				// Queue full: drop-new, but the accounting travels
				// through the queue as a marker so it lands in order.
				queue <- frameJob{seq: seq, events: events}
			}
		case FrameHealth:
			var rows []HealthRow
			if err := json.Unmarshal(payload, &rows); err == nil {
				s.store.MergeHealth(process, rows)
			}
		case FrameBye:
			var bye Bye
			if err := json.Unmarshal(payload, &bye); err != nil {
				s.logf("agg: %s: bad bye: %v", process, err)
				break loop
			}
			// Drain before recording: once the bye is visible in a
			// query, the producer's ingested + dropped == sent exactly.
			close(queue)
			<-done
			drained = true
			s.store.ByeReceived(process, bye)
			clean = true
			break loop
		default:
			s.logf("agg: %s: unknown frame kind %d", process, kind)
		}
	}
	if !drained {
		close(queue)
		<-done
	}
	s.store.Closed(process, clean)
}

// serveQueries answers query frames until the client goes away.
func (s *Server) serveQueries(conn net.Conn, fr *trace.FrameReader, fw *trace.FrameWriter) {
	for {
		s.idleDeadline(conn)
		kind, payload, err := fr.Next()
		if err != nil {
			return
		}
		if kind != FrameQuery {
			continue
		}
		var q Query
		if err := json.Unmarshal(payload, &q); err != nil {
			fw.Frame(FrameResult, errJSON(fmt.Errorf("bad query: %w", err)))
			continue
		}
		res, err := s.Answer(q)
		if err != nil {
			fw.Frame(FrameResult, errJSON(err))
			continue
		}
		if fw.Frame(FrameResult, res) != nil {
			return
		}
	}
}

// Answer evaluates one query against the store, returning indented JSON
// with stable field order.
func (s *Server) Answer(q Query) ([]byte, error) {
	var v any
	switch q.Q {
	case "", "fleet":
		v = s.store.Fleet()
	case "failures":
		v = s.store.Failures()
	case "topk":
		if q.Class == "" {
			return nil, fmt.Errorf("topk query needs a class")
		}
		v = s.store.TopK(q.Class, q.K)
	case "samples":
		v = s.store.Samples(q.Class)
	case "health":
		v = s.store.Health()
	default:
		return nil, fmt.Errorf("unknown query %q (want fleet, failures, topk, samples or health)", q.Q)
	}
	return json.MarshalIndent(v, "", "  ")
}

func errJSON(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

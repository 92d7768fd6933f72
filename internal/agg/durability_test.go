package agg

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tesla/internal/trace"
)

// Durability-plane tests: exactly-once delivery across connection faults
// and crashes, snapshot/restore fidelity, the idle-connection reaper, and
// race-safe client shutdown.

// ---------------------------------------------------------------------
// Connection fault injection (the ClientOpts.wrapConn seam).

// flakyConn fails the Nth sequenced-trace write AFTER the bytes reached
// the wire — the exact shape of the PR 7 double-count bug, where a write
// error masked a successful delivery and the retry was ingested twice.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	seqN   int
	failAt int
	fired  *atomic.Bool
	// landed, when set, runs after the failing write and before the
	// reset, e.g. to wait until the server has applied the frame.
	landed func()
}

func (f *flakyConn) Write(b []byte) (int, error) {
	n, err := f.Conn.Write(b)
	if err != nil || len(b) == 0 || b[0] != FrameSeqTrace {
		return n, err
	}
	f.mu.Lock()
	f.seqN++
	hit := f.seqN == f.failAt
	f.mu.Unlock()
	if hit && f.fired.CompareAndSwap(false, true) {
		// The frame is fully on the wire, but the caller sees a failure.
		if f.landed != nil {
			f.landed()
		}
		f.Conn.Close()
		return n, fmt.Errorf("injected: connection reset after the write landed")
	}
	return n, err
}

// TestResendDeduplicated pins the double-count regression: a trace write
// that reaches the server but reports an error is resent on the next
// connection, and the server's sequence dedup ingests it exactly once.
func TestResendDeduplicated(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	var fired atomic.Bool
	c, err := Dial(sock, ClientOpts{
		Tool: "t", Process: "flaky", backoff: 5 * time.Millisecond,
		wrapConn: func(conn net.Conn) net.Conn {
			return &flakyConn{Conn: conn, failAt: 3, fired: &fired, landed: func() {
				// Once the server has applied the frame, its re-send is a
				// certain dup; without the wait, an ack write to the reset
				// connection can close it before the frame is read.
				deadline := time.Now().Add(10 * time.Second)
				for srv.store.AckSeq("flaky") < 3 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames, per = 8, 16
	for i := 0; i < frames; i++ {
		if err := c.SendTrace(producerTrace(uint64(i*100), per)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the writer hit the fault mid-stream
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("fault never fired; the regression went unexercised")
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Fatal("expected a reconnect after the injected reset")
	}
	var ps ProducerStat
	waitFor(t, "flaky accounted", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "flaky" && p.Clean {
				ps = p
				return true
			}
		}
		return false
	})
	// Exactly once: every event ingested once, the resent frame visible
	// only in the dup counters, and ingested + dropped == sent exactly.
	if ps.Events != frames*per {
		t.Fatalf("ingested %d events, want exactly %d (dup leak or loss)", ps.Events, frames*per)
	}
	if ps.DupFrames == 0 {
		t.Fatalf("expected the resend to be observed as a dedup, got %+v", ps)
	}
	if ps.Events+ps.DroppedEvents != ps.SentEvents {
		t.Fatalf("accounting leak: %d + %d != %d", ps.Events, ps.DroppedEvents, ps.SentEvents)
	}
}

// TestResendSpoolReportsRepair: a resend over a spool whose tail was torn
// delivers the intact frames and reports the cut in its stats, which
// tesla-agg resend prints.
func TestResendSpoolReportsRepair(t *testing.T) {
	_, sock := startServer(t, ServerOpts{})
	dir := t.TempDir()
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	const frames, per = 4, 8
	for i := 1; i <= frames; i++ {
		payload := encodeTracePayload(t, producerTrace(uint64(i*100), per))
		if err := spool.Append(EncodeSeqTrace(uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, "wal-000001.seg"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	st, err := ResumeSpool(sock, "torn", dir, ResumeOpts{})
	if err != nil {
		t.Fatalf("resend: %v", err)
	}
	if st.Frames != frames || st.Recovered.TruncatedBytes != 5 {
		t.Fatalf("resume stats %+v, want %d frames and a 5-byte cut", st, frames)
	}
	if note := st.Recovered.Note(); !strings.Contains(note, "cut 5 torn or corrupt byte(s)") {
		t.Fatalf("repair note %q does not report the cut", note)
	}
}

// TestResendSpoolReconnects: a resend whose first connection resets after
// a frame landed mid-spool reconnects and completes like any client: the
// re-sent frame deduplicates, every event is ingested once, and the bye's
// full-spool totals close the accounting exactly. The reset waits for the
// server to apply the frame, so the dedup is certain rather than a race
// between the server's read of the frame and its view of the reset.
func TestResendSpoolReconnects(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	dir := t.TempDir()
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	const frames, per = 8, 16
	for i := 1; i <= frames; i++ {
		payload := encodeTracePayload(t, producerTrace(uint64(i*100), per))
		if err := spool.Append(EncodeSeqTrace(uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	st, err := ResumeSpool(sock, "resumed", dir, ResumeOpts{
		wrapConn: func(conn net.Conn) net.Conn {
			return &flakyConn{Conn: conn, failAt: 3, fired: &fired, landed: func() {
				deadline := time.Now().Add(10 * time.Second)
				for srv.store.AckSeq("resumed") < 3 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}}
		},
	})
	if err != nil {
		t.Fatalf("resend: %v", err)
	}
	if !fired.Load() {
		t.Fatal("fault never fired; the reconnect went unexercised")
	}
	if st.Frames != frames || st.Events != frames*per || st.Resent+st.Skipped != frames {
		t.Fatalf("resume stats %+v, want %d frames / %d events all delivered", st, frames, frames*per)
	}
	var ps ProducerStat
	waitFor(t, "resumed producer clean", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "resumed" && p.Clean {
				ps = p
				return true
			}
		}
		return false
	})
	if ps.Events != frames*per || ps.SentEvents != frames*per {
		t.Fatalf("ingested %d / bye sent %d events, want exactly %d", ps.Events, ps.SentEvents, frames*per)
	}
	if ps.DupFrames == 0 {
		t.Fatalf("expected the re-sent frames to be observed as dedups, got %+v", ps)
	}
	if ps.Events+ps.DroppedEvents != ps.SentEvents {
		t.Fatalf("accounting leak: %d + %d != %d", ps.Events, ps.DroppedEvents, ps.SentEvents)
	}
}

// TestResendSpoolNoDegradedBye: a resend that cannot deliver a frame
// (its server connection resets and every redial fails) returns an error
// and sends no bye, so the crashed run's accounting stays open; the spool
// is untouched, and a retry delivers every event exactly once.
func TestResendSpoolNoDegradedBye(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	dir := t.TempDir()
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	const frames, per = 6, 8
	for i := 1; i <= frames; i++ {
		payload := encodeTracePayload(t, producerTrace(uint64(i*100), per))
		if err := spool.Append(EncodeSeqTrace(uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}

	var fired, dialed atomic.Bool
	_, err = ResumeSpool(sock, "stuck", dir, ResumeOpts{
		wrapConn: func(conn net.Conn) net.Conn {
			if dialed.Swap(true) {
				conn.Close() // every redial dies before its handshake
				return conn
			}
			return &flakyConn{Conn: conn, failAt: 2, fired: &fired}
		},
	})
	if err == nil {
		t.Fatal("resend with an undeliverable frame reported success")
	}
	waitFor(t, "stuck producer disconnected", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "stuck" && p.Disconnects > 0 {
				return true
			}
		}
		return false
	})
	for _, p := range srv.store.Fleet().Producers {
		if p.Process == "stuck" && (p.Clean || p.SentEvents != 0) {
			t.Fatalf("failed resend closed the accounting: %+v", p)
		}
	}

	st, err := ResumeSpool(sock, "stuck", dir, ResumeOpts{})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if st.Frames != frames {
		t.Fatalf("retry saw %d spooled frames, want %d (spool not intact)", st.Frames, frames)
	}
	var ps ProducerStat
	waitFor(t, "stuck producer clean", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "stuck" && p.Clean {
				ps = p
				return true
			}
		}
		return false
	})
	if ps.Events != frames*per || ps.Events+ps.DroppedEvents != ps.SentEvents {
		t.Fatalf("after retry: ingested %d + dropped %d, sent %d, want exactly %d",
			ps.Events, ps.DroppedEvents, ps.SentEvents, frames*per)
	}
}

// ---------------------------------------------------------------------
// Idle reaping (slow loris).

// TestIdleConnReaped: a producer that completes the handshake and then
// goes silent is disconnected once IdleTimeout passes, freeing its
// goroutine and surfacing as an unclean disconnect.
func TestIdleConnReaped(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial(SplitAddr(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	hello, _ := json.Marshal(Hello{Proto: ProtoVersion, Codec: trace.Version, Tool: "loris", Process: "loris"})
	fw := trace.NewFrameWriter(conn)
	if err := fw.Frame(FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.NewFrameReader(conn).Next(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// ... and now say nothing. The server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	for {
		if _, err := conn.Read(make([]byte, 64)); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("server kept the idle connection for %v", waited)
	}
	waitFor(t, "loris disconnected", func() bool {
		for _, p := range srv.store.Fleet().Producers {
			if p.Process == "loris" && !p.Connected && p.Disconnects == 1 {
				return true
			}
		}
		return false
	})
}

// ---------------------------------------------------------------------
// Race-safe Close.

// TestCloseIdempotent: Close may be called twice, concurrently, and
// racing in-flight SendTrace calls; every caller gets the same verdict
// and nothing panics (the previous client closed a channel here).
func TestCloseIdempotent(t *testing.T) {
	_, sock := startServer(t, ServerOpts{})
	c, err := Dial(sock, ClientOpts{Tool: "t", Process: "races"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.SendTrace(producerTrace(uint64(i*1000+j), 4))
			}
		}(i)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("late Close: %v", err)
	}
}

// ---------------------------------------------------------------------
// Snapshot / restore.

// ingestFleet pushes a deterministic mixed load through a live server.
func ingestFleet(t *testing.T, sock string, procs int) {
	t.Helper()
	for p := 0; p < procs; p++ {
		c, err := Dial(sock, ClientOpts{Tool: "t", Process: fmt.Sprintf("proc-%d", p)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := c.SendTrace(producerTrace(uint64(p*10000+i*100), 12)); err != nil {
				t.Fatal(err)
			}
		}
		c.SendHealth(nil)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRoundTrip: snapshot a populated store, restore it into a
// fresh one, and require every query surface to answer identically. Two
// consecutive snapshots of an idle store must be byte-identical.
func TestSnapshotRoundTrip(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	ingestFleet(t, sock, 3)
	st := srv.store
	waitFor(t, "fleet clean", func() bool { return st.Fleet().CleanProducers == 3 })

	path := filepath.Join(t.TempDir(), "agg.snap")
	if _, err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("snapshot file missing after write")
	}
	restored := NewStore(StoreOpts{Seed: 7})
	restored.Restore(snap)

	type surface struct {
		name string
		get  func(*Store) any
	}
	for _, sf := range []surface{
		{"fleet", func(s *Store) any { return s.Fleet() }},
		{"failures", func(s *Store) any { return s.Failures() }},
		{"health", func(s *Store) any { return s.Health() }},
		{"topk", func(s *Store) any { return s.TopK("lock", 5) }},
		{"samples", func(s *Store) any { return s.Samples("lock") }},
	} {
		want, _ := json.Marshal(sf.get(st))
		got, _ := json.Marshal(sf.get(restored))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s diverged after restore:\n want %s\n  got %s", sf.name, want, got)
		}
	}

	// Idempotence: snapshotting the restored store reproduces the file.
	path2 := filepath.Join(t.TempDir(), "agg2.snap")
	if _, err := restored.WriteSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(st.Snapshot())
	b, _ := json.Marshal(restored.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("re-snapshot diverged:\n%s\n%s", a, b)
	}
}

// TestDurableAcks: with snapshots enabled the server only acks what a
// snapshot has persisted, so a client never prunes a frame the server
// could still lose to a crash.
func TestDurableAcks(t *testing.T) {
	store := NewStore(StoreOpts{})
	tr := producerTrace(0, 4)
	payload := tracePayloadFor(t, tr)
	if !store.BeginSeqFrame("p", 1, 4) {
		t.Fatal("fresh frame rejected")
	}
	if err := store.ApplySeqFrame("p", 1, payload); err != nil {
		t.Fatal(err)
	}
	if got := store.AckSeq("p"); got != 1 {
		t.Fatalf("volatile ack = %d, want 1", got)
	}
	store.SetDurable(true)
	if got := store.AckSeq("p"); got != 0 {
		t.Fatalf("durable ack before any snapshot = %d, want 0", got)
	}
	if _, err := store.WriteSnapshot(filepath.Join(t.TempDir(), "s.snap")); err != nil {
		t.Fatal(err)
	}
	if got := store.AckSeq("p"); got != 1 {
		t.Fatalf("durable ack after snapshot = %d, want 1", got)
	}
}

func tracePayloadFor(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	return encodeTracePayload(t, tr)
}

// ---------------------------------------------------------------------
// Protocol compatibility.

// TestV1ProducerRejected: a producer speaking the retired proto v1 is
// turned away at the handshake with a message naming both versions, and
// leaves no producer record behind.
func TestV1ProducerRejected(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	conn, err := net.Dial(SplitAddr(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(Magic))
	fw := trace.NewFrameWriter(conn)
	hello, _ := json.Marshal(Hello{Proto: 1, Codec: trace.Version, Tool: "old", Process: "v1"})
	if err := fw.Frame(FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	_, payload, err := trace.NewFrameReader(conn).Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("v1 hello accepted")
	}
	if !strings.Contains(ack.Message, "proto v1") || !strings.Contains(ack.Message, "proto v2") {
		t.Fatalf("rejection does not name both versions: %q", ack.Message)
	}
	// The server closes a rejected connection without reading further.
	if _, _, err := trace.NewFrameReader(conn).Next(); err == nil {
		t.Fatal("rejected connection stayed open")
	}
	if ps := srv.store.Fleet().Producers; len(ps) != 0 {
		t.Fatalf("rejected producer left a record: %+v", ps)
	}
}

func encodeTracePayload(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf []byte
	buf = append(buf, byte(len(tr.Events)))
	w := &sliceWriter{buf: buf}
	if err := trace.Write(w, tr); err != nil {
		t.Fatal(err)
	}
	return w.buf
}

type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// ---------------------------------------------------------------------
// Randomized crash schedules.

// crashSchedule is one randomized run: a spooling producer streams
// frames while connections are reset, the server is crash-restarted from
// its latest snapshot, and the run ends either cleanly or as a producer
// crash closed later by ResumeSpool. The invariants hold regardless of
// where the kills landed:
//
//   - never more: ingested events never exceed the loss-free oracle
//     (double-ingest would break this);
//   - exact accounting: ingested + server-dropped == sent for the final
//     (clean) bye;
//   - with an ample queue and a successful resume, ingested == oracle
//     exactly — nothing was lost either.
func crashSchedule(t *testing.T, seed int64) (killPoints int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	sock := filepath.Join(dir, "agg.sock")
	snapPath := filepath.Join(dir, "agg.snap")
	spoolDir := filepath.Join(dir, "spool")

	var srv *Server
	var srvLn net.Listener
	newServer := func() {
		ln, err := Listen(sock)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		store := NewStore(StoreOpts{Seed: 7})
		snap, err := LoadSnapshot(snapPath)
		if err != nil {
			t.Fatalf("load snapshot: %v", err)
		}
		store.Restore(snap)
		srv = NewServer(store, ServerOpts{Queue: 256})
		srv.SnapshotEvery(snapPath, 5*time.Millisecond)
		srvLn = ln
		go srv.Serve(ln)
	}
	stopServer := func() {
		srv.Close()
		// Close may race Serve's listener registration; closing the
		// listener directly guarantees the socket file is unlinked
		// before the next bind.
		srvLn.Close()
	}
	newServer()

	var connMu sync.Mutex
	var conns []net.Conn
	var dead atomic.Bool // producer "crashed": all its future dials fail
	spool, err := trace.OpenSpool(spoolDir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock, ClientOpts{
		Tool: "t", Process: "crashy", Buffer: 4,
		retries: 3, backoff: 2 * time.Millisecond, Spool: spool,
		wrapConn: func(conn net.Conn) net.Conn {
			if dead.Load() {
				conn.Close()
				return conn
			}
			connMu.Lock()
			conns = append(conns, conn)
			connMu.Unlock()
			return conn
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	killConns := func() {
		connMu.Lock()
		for _, cn := range conns {
			cn.Close()
		}
		conns = conns[:0]
		connMu.Unlock()
	}

	frames := 10 + rng.Intn(30)
	var oracle uint64
	for i := 0; i < frames; i++ {
		n := 1 + rng.Intn(24)
		oracle += uint64(n)
		if err := c.SendTrace(producerTrace(uint64(i*1000), n)); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(10) {
		case 0: // connection reset mid-stream
			killConns()
			killPoints++
		case 1: // server crash + restart from the latest snapshot
			stopServer()
			killPoints++
			newServer()
		case 2:
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	producerCrashed := rng.Intn(3) == 0
	if producerCrashed {
		// A producer crash: its connections die, every redial fails, and
		// its client state is gone; only the spool survives. The doomed
		// Close stands in for process death — its drain fails fast and
		// the bye never gets out.
		dead.Store(true)
		stopServer()
		killPoints++
		killConns()
		c.Close()
		newServer()
		if _, err := ResumeSpool(sock, "crashy", spoolDir, ResumeOpts{}); err != nil {
			t.Fatalf("resume: %v", err)
		}
	} else {
		if err := c.Close(); err != nil {
			t.Fatalf("clean close: %v", err)
		}
	}

	st := srv.store
	var ps ProducerStat
	// A generous deadline: under the race detector with fsync-heavy
	// snapshot loops the drain can take a while; correctness, not
	// latency, is under test here.
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, p := range st.Fleet().Producers {
			if p.Process == "crashy" && p.Clean {
				ps = p
			}
		}
		if ps.Process != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ps.Process == "" {
		t.Fatalf("seed %d: producer never closed cleanly", seed)
	}
	if ps.Events > oracle {
		t.Fatalf("seed %d: ingested %d events > oracle %d — double-ingest", seed, ps.Events, oracle)
	}
	if ps.Events+ps.DroppedEvents != ps.SentEvents {
		t.Fatalf("seed %d: accounting leak: ingested %d + dropped %d != sent %d",
			seed, ps.Events, ps.DroppedEvents, ps.SentEvents)
	}
	if producerCrashed {
		// The spool held every frame, so the resume's bye totals are the
		// oracle itself and nothing may be missing.
		if ps.SentEvents != oracle {
			t.Fatalf("seed %d: resume reported %d sent events, oracle %d", seed, ps.SentEvents, oracle)
		}
		if ps.Events+ps.DroppedEvents != oracle {
			t.Fatalf("seed %d: lost events: %d + %d != %d", seed, ps.Events, ps.DroppedEvents, oracle)
		}
	} else if c.Stats().DroppedFrames == 0 && ps.DroppedEvents == 0 && ps.Events != oracle {
		t.Fatalf("seed %d: loss-free run ingested %d != oracle %d", seed, ps.Events, oracle)
	}
	srv.Close()
	return killPoints
}

// TestCrashSchedules runs enough randomized schedules to cover well over
// the gate's required kill-point count, with deterministic seeds so a
// failure names its schedule.
func TestCrashSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedules are the crash-gate's long pole")
	}
	total := 0
	for seed := int64(1); seed <= crashSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			total += crashSchedule(t, seed)
		})
	}
	t.Logf("crash schedules covered %d kill points", total)
}

package agg

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
	"tesla/internal/trace"
)

// startServer runs an in-process server on a listener and returns it with
// its dial address.
func startServer(t *testing.T, opts ServerOpts) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	sock := filepath.Join(dir, "agg.sock")
	ln, err := Listen(sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(NewStore(StoreOpts{Seed: 7}), opts)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, sock
}

// producerTrace builds one delta trace with a known event mix.
func producerTrace(seqBase uint64, n int) *trace.Trace {
	tr := &trace.Trace{FormatVersion: trace.Version}
	for i := 0; i < n; i++ {
		ev := trace.Event{Seq: seqBase + uint64(i) + 1, Thread: -1, Class: "lock"}
		switch i % 4 {
		case 0, 1:
			ev.Kind = trace.KindTransition
			ev.From, ev.To, ev.Symbol = 0, 1, "acquire"
		case 2:
			ev.Kind = trace.KindAccept
		case 3:
			ev.Kind = trace.KindFail
			ev.Symbol = "release"
			ev.Verdict = core.VerdictNoInstance
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAggGate is the fleet smoke: several concurrent producers stream a
// known corpus, one disconnects mid-stream without a bye, and the fleet
// query must report exact counts — ingested + dropped == sent per clean
// producer, the disconnect marked, nothing lost silently.
func TestAggGate(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})

	const producers = 4
	const framesPer = 8
	const eventsPer = 64

	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			c, err := Dial(sock, ClientOpts{Tool: "agg-test", Process: fmt.Sprintf("proc-%d", p)})
			if err != nil {
				errs <- err
				return
			}
			for f := 0; f < framesPer; f++ {
				if err := c.SendTrace(producerTrace(uint64(p*1000000+f*1000), eventsPer)); err != nil {
					errs <- err
					return
				}
			}
			if err := c.SendHealth([]core.ClassHealth{{Class: "lock", Live: 1, Health: core.Health{Violations: uint64(p)}}}); err != nil {
				errs <- err
				return
			}
			errs <- c.Close()
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Fatalf("producer: %v", err)
		}
	}

	// One more producer connects, streams one frame, then vanishes without
	// a bye: a mid-stream disconnect the fleet must mark, not hide.
	network, address := SplitAddr(sock)
	conn, err := net.Dial(network, address)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	fw := trace.NewFrameWriter(conn)
	hello, _ := json.Marshal(Hello{Proto: ProtoVersion, Codec: trace.Version, Tool: "agg-test", Process: "proc-lost"})
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Frame(FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := trace.NewFrameReader(conn).Next(); err != nil || kind != FrameHelloAck {
		t.Fatalf("no ack for raw producer: kind=%d err=%v", kind, err)
	}
	lost := producerTrace(9000000, 16)
	var payload strings.Builder
	payload.WriteByte(byte(len(lost.Events))) // single-byte uvarint for 16
	if err := trace.Write(&payload, lost); err != nil {
		t.Fatal(err)
	}
	if err := fw.Frame(FrameSeqTrace, EncodeSeqTrace(1, []byte(payload.String()))); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	store := srv.store
	waitFor(t, "all producers accounted", func() bool {
		sum := store.Fleet()
		return sum.CleanProducers == producers && sum.Disconnected == 1 &&
			sum.TotalEvents == uint64(producers*framesPer*eventsPer+16)
	})

	sum := store.Fleet()
	if len(sum.Producers) != producers+1 {
		t.Fatalf("producer count: %+v", sum.Producers)
	}
	for _, ps := range sum.Producers {
		if ps.Process == "proc-lost" {
			if ps.Clean || ps.Disconnects != 1 || ps.Events != 16 {
				t.Fatalf("lost producer misreported: %+v", ps)
			}
			continue
		}
		// The exact-accounting invariant, per clean producer: what the
		// server ingested plus what it dropped is exactly what the bye
		// says was sent.
		if !ps.Clean {
			t.Fatalf("producer not clean: %+v", ps)
		}
		if ps.Events+ps.DroppedEvents != ps.SentEvents {
			t.Fatalf("accounting leak: ingested %d + dropped %d != sent %d (%s)",
				ps.Events, ps.DroppedEvents, ps.SentEvents, ps.Process)
		}
		if ps.SentEvents != framesPer*eventsPer {
			t.Fatalf("producer sent %d events, want %d", ps.SentEvents, framesPer*eventsPer)
		}
	}

	// The aggregation itself: each clean producer's corpus is framesPer
	// frames of eventsPer events in a fixed 2:1:1 mix, plus the lost
	// producer's 16.
	perProducer := uint64(framesPer * eventsPer)
	wantTransitions := (perProducer/2)*producers + 8
	cls := sum.Classes
	if len(cls) != 1 || cls[0].Class != "lock" || cls[0].Transitions != wantTransitions {
		t.Fatalf("class rollup: %+v (want %d transitions)", cls, wantTransitions)
	}

	// Health arrived from every clean producer; violations sum 0+1+2+3.
	hs := store.Health()
	if len(hs) != 1 || hs[0].Live != producers || hs[0].Violations != 6 {
		t.Fatalf("fleet health: %+v", hs)
	}

	// Query-role round trip over the wire.
	qc, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	qw := trace.NewFrameWriter(qc)
	qhello, _ := json.Marshal(Hello{Proto: ProtoVersion, Codec: trace.Version, Tool: "agg-test", Query: true})
	qc.Write([]byte(Magic))
	qw.Frame(FrameHello, qhello)
	qr := trace.NewFrameReader(qc)
	if kind, _, err := qr.Next(); err != nil || kind != FrameHelloAck {
		t.Fatalf("query ack: kind=%d err=%v", kind, err)
	}
	q, _ := json.Marshal(Query{Q: "failures"})
	qw.Frame(FrameQuery, q)
	kind, res, err := qr.Next()
	if err != nil || kind != FrameResult {
		t.Fatalf("query result: kind=%d err=%v", kind, err)
	}
	var sites []FailureSite
	if err := json.Unmarshal(res, &sites); err != nil {
		t.Fatalf("result not JSON: %v\n%s", err, res)
	}
	if len(sites) != 1 || sites[0].Class != "lock" || len(sites[0].PerProcess) != producers+1 {
		t.Fatalf("failures over the wire: %+v", sites)
	}
}

// TestVersionRejection: a mismatched codec or proto version is refused at
// the handshake with a message naming the producing tool and both sides'
// versions — satellite 1's wire half.
func TestVersionRejection(t *testing.T) {
	_, sock := startServer(t, ServerOpts{})
	network, address := SplitAddr(sock)
	conn, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, _ := json.Marshal(Hello{Proto: ProtoVersion, Codec: trace.Version + 1, Tool: "old-tesla-run", Process: "p"})
	conn.Write([]byte(Magic))
	trace.NewFrameWriter(conn).Frame(FrameHello, hello)
	kind, payload, err := trace.NewFrameReader(conn).Next()
	if err != nil || kind != FrameHelloAck {
		t.Fatalf("want hello ack, got kind=%d err=%v", kind, err)
	}
	var ack HelloAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("mismatched codec version was accepted")
	}
	for _, want := range []string{"old-tesla-run", fmt.Sprintf("codec v%d", trace.Version+1), fmt.Sprintf("codec v%d", trace.Version)} {
		if !strings.Contains(ack.Message, want) {
			t.Fatalf("rejection %q does not name %q", ack.Message, want)
		}
	}

	// The Dial helper surfaces the same rejection as an error.
	if _, err := dialWithCodec(sock); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Dial accepted a rejected handshake: %v", err)
	}
}

// dialWithCodec exercises Dial against a one-shot server that always
// rejects the handshake, mimicking a version-mismatch verdict.
func dialWithCodec(realSock string) (*Client, error) {
	ln, err := net.Listen("unix", realSock+".reject")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var magic [len(Magic)]byte
		if _, err := io.ReadFull(conn, magic[:]); err != nil {
			return
		}
		trace.NewFrameReader(conn).Next() // hello
		ack, _ := json.Marshal(HelloAck{OK: false, Message: "tesla-agg rejected you: upgrade"})
		trace.NewFrameWriter(conn).Frame(FrameHelloAck, ack)
	}()
	return Dial(realSock+".reject", ClientOpts{Tool: "t", Process: "p"})
}

// TestServerQueueDrop: with a tiny queue and a blocked worker the server
// drops new frames and charges the producer the exact declared event
// counts.
func TestServerQueueDrop(t *testing.T) {
	store := NewStore(StoreOpts{})
	// Exercise DropFrame directly — the queue race itself is timing-bound;
	// the contract under test is the accounting arithmetic.
	tr := producerTrace(0, 10)
	var payload strings.Builder
	payload.WriteByte(10)
	if err := trace.Write(&payload, tr); err != nil {
		t.Fatal(err)
	}
	_, declared, _, err := SeqTraceInfo(EncodeSeqTrace(1, []byte(payload.String())))
	if err != nil {
		t.Fatal(err)
	}
	store.DropFrame("p", declared)
	sum := store.Fleet()
	if sum.DroppedFrames != 1 || sum.DroppedEvents != 10 {
		t.Fatalf("drop accounting: %+v", sum)
	}

	// And through a real connection with Queue=1 and a storm of frames:
	// whatever was not ingested must appear in the drop counters so the
	// invariant still sums exactly.
	srv, sock := startServer(t, ServerOpts{Queue: 1})
	c, err := Dial(sock, ClientOpts{Tool: "t", Process: "stormy", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.SendTrace(producerTrace(uint64(i*100), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.store
	waitFor(t, "storm accounted", func() bool {
		for _, ps := range st.Fleet().Producers {
			if ps.Process == "stormy" && ps.Clean {
				return true
			}
		}
		return false
	})
	for _, ps := range st.Fleet().Producers {
		if ps.Process != "stormy" {
			continue
		}
		if ps.Events+ps.DroppedEvents != ps.SentEvents {
			t.Fatalf("storm accounting leak: ingested %d + dropped %d != sent %d",
				ps.Events, ps.DroppedEvents, ps.SentEvents)
		}
		if ps.SentEvents+c.Stats().DroppedEvents != 200*32 {
			t.Fatalf("client accounting leak: sent %d + client-dropped %d != %d",
				ps.SentEvents, c.Stats().DroppedEvents, 200*32)
		}
	}
}

// TestClientReconnect: a connection killed mid-stream is re-established
// transparently; every frame still arrives or is counted dropped.
func TestClientReconnect(t *testing.T) {
	srv, sock := startServer(t, ServerOpts{})
	c, err := Dial(sock, ClientOpts{Tool: "t", Process: "bouncy", backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendTrace(producerTrace(0, 8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first frame", func() bool { return c.Stats().SentFrames == 1 })

	// Kill every live server-side connection out from under the client.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()

	if err := c.SendTrace(producerTrace(1000, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after reconnect: %v", err)
	}
	if c.Stats().Reconnects == 0 {
		t.Fatal("no reconnect recorded")
	}
	st := srv.store
	waitFor(t, "reconnected producer clean", func() bool {
		for _, ps := range st.Fleet().Producers {
			if ps.Process == "bouncy" && ps.Clean {
				return true
			}
		}
		return false
	})
	for _, ps := range st.Fleet().Producers {
		if ps.Process == "bouncy" && ps.Events+ps.DroppedEvents != ps.SentEvents {
			t.Fatalf("reconnect accounting leak: %+v", ps)
		}
	}
}

// mustCompile builds one automaton for the batched-producer e2e.
func mustCompile(t *testing.T, name, src string) *automata.Automaton {
	t.Helper()
	a, err := spec.Parse(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// TestAggBatchedProducer runs the real producer stack — batched monitor
// threads staging into trace rings, the publisher cutting live deltas with
// CutInto while events fly — against an in-process server, and checks that
// the exact-accounting invariant survives batching: per producer,
// ingested + dropped == sent, and every event the recorder assigned a
// sequence number to is either ingested or charged to a drop counter
// (client, server or ring). Tiny rings plus a pre-publisher burst force a
// known-nonzero ring loss, so the loss path is exercised, not just zero.
func TestAggBatchedProducer(t *testing.T) {
	for _, bs := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch%d", bs), func(t *testing.T) {
			srv, sock := startServer(t, ServerOpts{})
			autos := []*automata.Automaton{mustCompile(t, "a1", `TESLA_SYSCALL_PREVIOUSLY(chk(x) == 0)`)}
			rec := trace.NewRecorder(autos, 64)
			m := monitor.MustNew(monitor.Options{Handler: rec, Tap: rec, BatchSize: bs}, autos...)
			c, err := Dial(sock, ClientOpts{Tool: "agg-test", Process: "batchy"})
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPublisher(rec, c)

			// Overrun the ring before the first cut: the stream must open
			// with explicit loss, not silence.
			burst := m.NewThread()
			for i := 0; i < 100; i++ {
				burst.Call("chk", core.Value(i))
			}
			burst.Flush()
			pub.Start(time.Millisecond)

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				th := m.NewThread()
				wg.Add(1)
				go func(th *monitor.Thread, g int) {
					defer wg.Done()
					for r := 0; r < 150; r++ {
						v := core.Value(g*1000 + r)
						th.Call("amd64_syscall")
						th.Call("chk", v)
						th.Return("chk", 0, v)
						th.Site("a1", v)
						th.Return("amd64_syscall", 0)
						if r%17 == 0 {
							th.Flush()
						}
					}
				}(th, g)
			}
			wg.Wait()
			// Process exit: drain the staged rings, then finish the stream —
			// final delta, health ride-along, bye — as tesla-run does.
			if err := m.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if err := pub.Stop(); err != nil {
				t.Fatalf("final flush: %v", err)
			}
			if err := c.SendHealth(m.Health()); err != nil {
				t.Fatalf("health: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			recorded := rec.EventCount()

			store := srv.store
			waitFor(t, "batched producer clean", func() bool {
				for _, ps := range store.Fleet().Producers {
					if ps.Process == "batchy" && ps.Clean {
						return true
					}
				}
				return false
			})
			for _, ps := range store.Fleet().Producers {
				if ps.Process != "batchy" {
					continue
				}
				if ps.Events+ps.DroppedEvents != ps.SentEvents {
					t.Fatalf("batch %d: accounting leak: ingested %d + dropped %d != sent %d",
						bs, ps.Events, ps.DroppedEvents, ps.SentEvents)
				}
				if ps.RingDropped == 0 {
					t.Fatalf("batch %d: burst past ring capacity reported no ring loss", bs)
				}
				got := ps.Events + ps.DroppedEvents + ps.ClientDropped + ps.RingDropped
				if got != recorded {
					t.Fatalf("batch %d: conservation leak: ingested %d + server-dropped %d + client-dropped %d + ring-lost %d != recorded %d",
						bs, ps.Events, ps.DroppedEvents, ps.ClientDropped, ps.RingDropped, recorded)
				}
			}
		})
	}
}

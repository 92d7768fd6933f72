package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tesla/internal/trace"
)

// TestCloseRacesAccept races Accept against Close: a connection the listener
// hands over while Close is underway must be closed by one side or the
// other, never left open for Close's drain to sit out its handshake or idle
// timeout.
func TestCloseRacesAccept(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 200; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("race%d.sock", i))
		ln, err := Listen(sock)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(NewStore(StoreOpts{}), ServerOpts{})
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()

		// A dialer keeps silent connections arriving while Close runs.
		var mu sync.Mutex
		var conns []net.Conn
		stop := make(chan struct{})
		dialed := make(chan struct{})
		go func() {
			defer close(dialed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("unix", sock)
				if err != nil {
					return
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
		}()
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)

		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatalf("iteration %d: Close still draining after 1s with connections arriving", i)
		}
		close(stop)
		<-dialed
		for _, c := range conns {
			c.Close()
		}
		if err := <-served; err != nil {
			t.Fatalf("iteration %d: Serve after Close: %v", i, err)
		}
	}
}

// silentServer accepts one producer, acks its hello, reads everything it
// sends and never closes its end: the server a producer's bye linger guards
// against. It returns the dial address.
func silentServer(t *testing.T) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "silent.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		held <- conn
		var magic [len(Magic)]byte
		if _, err := io.ReadFull(conn, magic[:]); err != nil {
			return
		}
		fr := trace.NewFrameReader(conn)
		fr.Next() // hello
		ack, _ := json.Marshal(HelloAck{OK: true, Proto: ProtoVersion, Codec: trace.Version})
		trace.NewFrameWriter(conn).Frame(FrameHelloAck, ack)
		for {
			if _, _, err := fr.Next(); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case conn := <-held:
			conn.Close()
		default:
		}
	})
	return sock
}

// shortLinger shortens byeLinger for one test.
func shortLinger(t *testing.T) {
	old := byeLinger
	byeLinger = 50 * time.Millisecond
	t.Cleanup(func() { byeLinger = old })
}

// TestByeLingerExpiryCounted: a client whose server never closes its end
// after the bye gives up after byeLinger and counts the expiry.
func TestByeLingerExpiryCounted(t *testing.T) {
	shortLinger(t)
	c, err := Dial(silentServer(t), ClientOpts{Tool: "t", Process: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendTrace(producerTrace(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := c.Stats().ByeLingerExpired; got != 1 {
		t.Fatalf("ByeLingerExpired = %d, want 1", got)
	}
}

// TestResumeByeLingerExpiryCounted is the same for a spool resume.
func TestResumeByeLingerExpiryCounted(t *testing.T) {
	shortLinger(t)
	dir := t.TempDir()
	spool, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	tr := producerTrace(0, 4)
	var body bytes.Buffer
	var prefix [binary.MaxVarintLen64]byte
	body.Write(prefix[:binary.PutUvarint(prefix[:], uint64(len(tr.Events)))])
	if err := trace.Write(&body, tr); err != nil {
		t.Fatal(err)
	}
	if err := spool.Append(EncodeSeqTrace(1, body.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ResumeSpool(silentServer(t), "p", dir, ResumeOpts{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.Resent != 1 || st.ByeLingerExpired != 1 {
		t.Fatalf("resume stats %+v, want 1 resent and 1 linger expiry", st)
	}
}

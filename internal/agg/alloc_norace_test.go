//go:build !race

package agg

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"tesla/internal/core"
	"tesla/internal/trace"
)

// Allocation regressions for the fleet trace path: recorder cut, wire
// encode and server ingest reuse their memory, so the allocations a delta
// costs do not grow with its event count. The file is excluded under
// -race, where sync.Pool drops items at random and the client's pooled
// encoders cannot stay warm. GC is paused while measuring for the same
// reason: a collection empties the pools.

// TestIngestFrameAllocs: ingesting a fleet-shaped frame — site and
// deliver events carrying values, an instack list, bound begin/end, init,
// clone, transition, accept and one failure — allocates the same number
// of times for 100 events as for 2000. Events decode from the payload into
// one reused event, their values into the producer ingester's arena, and
// site counts straight into the producer's sites; only the failure's
// sample and the frame's interned strings are allocated, and neither grows
// with the frame. The ingester belongs to its producer, not to a pool,
// and releasing the frame's payload (a Decoder reset to nil) returns an
// error value made once, not one formatted through fmt's pooled printer,
// so after two garbage collections a 2000-event frame allocates at most a
// few times more than a warmed one (it reads the same 8).
func TestIngestFrameAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	store := NewStore(StoreOpts{})
	allocs := map[int]float64{}
	var payload []byte
	for _, n := range []int{100, 2000} {
		payload = framePayload(fleetTrace(0, n, 50))
		allocs[n] = testing.AllocsPerRun(50, func() {
			if err := store.IngestFrame("p", payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Collect and measure on one P, as AllocsPerRun measures: Mallocs
	// counts the whole process, and a collection wakes runtime goroutines
	// that allocate (the unique-map cleanup, the scavenger's timer), which
	// could otherwise run beside the frame.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := store.IngestFrame("p", payload); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	afterGC := after.Mallocs - before.Mallocs
	t.Logf("IngestFrame: %.0f allocations at 100 events, %.0f at 2000, %d at 2000 after two GCs (%d B)",
		allocs[100], allocs[2000], afterGC, after.TotalAlloc-before.TotalAlloc)
	if allocs[2000] != allocs[100] {
		t.Fatalf("IngestFrame allocations grow with the frame: %.0f for 100 events, %.0f for 2000", allocs[100], allocs[2000])
	}
	if float64(afterGC) > allocs[2000]+4 {
		t.Fatalf("IngestFrame after two GCs allocates %d times, warmed %.0f: a collection emptied what the ingester reuses", afterGC, allocs[2000])
	}
}

// TestPublisherFlushAllocs: a Publisher flush — cut, encode, enqueue, and
// the writer, server apply and ack it sets off — allocates the same number
// of times for a 100-event delta as for a 2000-event one. Each cycle waits
// for the frame's ack, so the asynchronous work lands inside the cycle
// that caused it.
func TestPublisherFlushAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, sock := startServer(t, ServerOpts{})
	c, err := Dial(sock, ClientOpts{Tool: "alloc-test", Process: "flusher"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := trace.NewRecorder(nil, 1<<12)
	pub := NewPublisher(rec, c)
	cls := &core.Class{Name: "lock"}
	inst := &core.Instance{Key: core.AnyKey.Set(0, 1)}

	var frames uint64
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			rec.Transition(cls, inst, 0, 1, "acquire")
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		frames++
		deadline := time.Now().Add(5 * time.Second)
		for {
			c.mu.Lock()
			acked := c.acked
			c.mu.Unlock()
			if acked >= frames {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("frame %d never acked", frames)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	perFlush := func(n int) float64 {
		cycle(n) // warm up: buffers grow to this delta size once
		cycle(n)
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			cycle(n)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds
	}
	small, large := perFlush(100), perFlush(2000)
	t.Logf("Publisher.Flush: %.2f allocations per flush at 100 events, %.2f at 2000", small, large)
	// The margin absorbs amortised slice growth in the client's unacked
	// set; a per-event cost shows up as several allocations per flush.
	if large-small >= 0.5 {
		t.Fatalf("Publisher.Flush allocations grow with the delta: %.2f per flush at 100 events, %.2f at 2000", small, large)
	}
}

// TestSpooledClientMemoryBound: with a spool, the spool is the client's
// retransmission window. The server holds every ack back (durable mode,
// no snapshot), so all 200 frames stay unacked, yet none of them keeps
// its payload once written, and a 2000-event Publisher flush allocates
// about as many bytes as a 100-event one: the delta is copied into a
// recycled buffer, not a payload of its own. Each cycle waits until the
// server has applied its frame, so the asynchronous work lands inside the
// cycle that caused it.
func TestSpooledClientMemoryBound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv, sock := startServer(t, ServerOpts{})
	srv.store.SetDurable(true)
	spool, err := trace.OpenSpool(t.TempDir(), trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock, ClientOpts{Tool: "alloc-test", Process: "spooled", Spool: spool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := trace.NewRecorder(nil, 1<<12)
	pub := NewPublisher(rec, c)
	cls := &core.Class{Name: "lock"}
	inst := &core.Instance{Key: core.AnyKey.Set(0, 1)}

	var frames uint64
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			rec.Transition(cls, inst, 0, 1, "acquire")
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		frames++
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv.store.mu.Lock()
			applied := srv.store.proc("spooled").appliedSeq
			srv.store.mu.Unlock()
			if applied >= frames {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("frame %d never applied", frames)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	const rounds = 98
	perFlush := func(n int) float64 {
		cycle(n) // warm up: buffers grow to this delta size once
		cycle(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			cycle(n)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := perFlush(100), perFlush(2000)

	c.mu.Lock()
	unacked, kept := len(c.unacked), 0
	for _, f := range c.unacked {
		if f.payload != nil || f.buf != nil {
			kept++
		}
	}
	c.mu.Unlock()
	var payload int
	spool.Range(func(p []byte) error { payload = len(p); return nil })
	t.Logf("spooled Publisher.Flush: %.0f B per flush at 100 events, %.0f B at 2000 (payload %d B); %d frames unacked, %d keep a payload",
		small, large, payload, unacked, kept)
	if unacked != int(frames) || frames != 2*(rounds+2) {
		t.Fatalf("%d of %d frames unacked: the server acked under durable mode", unacked, frames)
	}
	if kept != 0 {
		t.Fatalf("%d of %d written spooled frames keep their payload in memory", kept, unacked)
	}
	if large-small >= float64(payload)/4 {
		t.Fatalf("spooled Publisher.Flush bytes grow with the delta: %.0f B per flush at 100 events, %.0f B at 2000 (payload %d B)", small, large, payload)
	}
}

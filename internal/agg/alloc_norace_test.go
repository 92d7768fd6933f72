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
// -race, where sync.Pool drops items at random and pooled encoders and
// ingesters cannot stay warm. GC is paused while measuring for the same
// reason: a collection empties the pools.

// TestIngestFrameAllocs: ingesting a fleet-shaped frame — site and
// deliver events carrying values, an instack list, bound begin/end, init,
// clone, transition, accept and one failure — allocates the same number
// of times for 100 events as for 2000. Events decode from the payload into
// one reused event, their values into the ingester's arena, and site
// counts into a per-frame table; only the failure's sample and the frame's
// interned strings are allocated, and neither grows with the frame.
func TestIngestFrameAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	store := NewStore(StoreOpts{})
	allocs := map[int]float64{}
	for _, n := range []int{100, 2000} {
		payload := framePayload(fleetTrace(0, n, 50))
		allocs[n] = testing.AllocsPerRun(50, func() {
			if err := store.IngestFrame("p", payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("IngestFrame: %.0f allocations at 100 events, %.0f at 2000", allocs[100], allocs[2000])
	if allocs[2000] != allocs[100] {
		t.Fatalf("IngestFrame allocations grow with the frame: %.0f for 100 events, %.0f for 2000", allocs[100], allocs[2000])
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

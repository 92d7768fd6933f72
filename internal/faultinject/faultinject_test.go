package faultinject

import (
	"sync"
	"testing"
)

// TestDeterminism: two injectors with one seed asked the same questions give
// identical answers, regardless of what other streams were consulted in
// between.
func TestDeterminism(t *testing.T) {
	a := New(7)
	b := New(7)
	a.SetRate(SiteAlloc, 0.3)
	b.SetRate(SiteAlloc, 0.3)

	var seqA, seqB []bool
	for i := 0; i < 500; i++ {
		seqA = append(seqA, a.Should(SiteAlloc, "cls"))
	}
	for i := 0; i < 500; i++ {
		// Interleave decisions of an unrelated stream: the cls stream
		// must be unaffected.
		b.Should(SiteAlloc, "other")
		seqB = append(seqB, b.Should(SiteAlloc, "cls"))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, seqA[i], seqB[i])
		}
	}
}

// TestSeedsDiffer: different seeds give different streams.
func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	a.SetRate(SiteAlloc, 0.5)
	b.SetRate(SiteAlloc, 0.5)
	same := 0
	for i := 0; i < 256; i++ {
		if a.Should(SiteAlloc, "x") == b.Should(SiteAlloc, "x") {
			same++
		}
	}
	if same == 256 {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
}

// TestRateAccuracy: observed fire frequency tracks the configured rate.
func TestRateAccuracy(t *testing.T) {
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		in := New(99)
		in.SetRate(SiteAlloc, rate)
		const n = 200000
		fired := 0
		for i := 0; i < n; i++ {
			if in.Should(SiteAlloc, "r") {
				fired++
			}
		}
		got := float64(fired) / n
		if got < rate*0.8 || got > rate*1.2 {
			t.Errorf("rate %.2f: observed %.4f over %d draws", rate, got, n)
		}
		if in.Fired(SiteAlloc, "r") != uint64(fired) || in.Attempts(SiteAlloc, "r") != n {
			t.Errorf("rate %.2f: accounting mismatch", rate)
		}
	}
}

// TestEdgesAndEvery: rate 0 never fires, rate 1 always fires, SetEvery fires
// on the exact cadence, Disarm goes inert.
func TestEdgesAndEvery(t *testing.T) {
	in := New(5)
	for i := 0; i < 100; i++ {
		if in.Should(SiteAlloc, "inert") {
			t.Fatal("unarmed site fired")
		}
	}
	in.SetRate(SiteAlloc, 1)
	for i := 0; i < 100; i++ {
		if !in.Should(SiteAlloc, "hot") {
			t.Fatal("rate-1 site failed to fire")
		}
	}
	in.SetEvery(SiteAlloc, 3)
	for i := 1; i <= 9; i++ {
		want := i%3 == 0
		if got := in.Should(SiteAlloc, "every"); got != want {
			t.Fatalf("SetEvery(3) attempt %d: got %v want %v", i, got, want)
		}
	}
	in.Disarm(SiteAlloc)
	if in.Should(SiteAlloc, "hot") {
		t.Fatal("disarmed site fired")
	}
	if in.TotalFired() == 0 {
		t.Fatal("TotalFired lost history")
	}
}

// TestConcurrentUse: concurrent Should calls race-cleanly and conserve
// accounting (attempts across goroutines sum exactly).
func TestConcurrentUse(t *testing.T) {
	in := New(11)
	in.SetRate(SiteAlloc, 0.2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.Should(SiteAlloc, "conc")
			}
		}()
	}
	wg.Wait()
	if got := in.Attempts(SiteAlloc, "conc"); got != 8000 {
		t.Fatalf("attempts = %d, want 8000", got)
	}
}

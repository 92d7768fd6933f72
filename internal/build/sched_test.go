package build_test

// Scheduler tests: the worker pool must produce identical results at every
// parallelism level, tolerate many concurrent builds sharing one cache,
// and schedule every node exactly once. Run under -race by `make race`.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tesla/internal/bench"
	"tesla/internal/build"
)

func TestParallelBuildsDeterministic(t *testing.T) {
	sources := bench.OpenSSLCodebase(10, 4)
	var want string
	for _, jobs := range []int{1, 2, 4, 8, 32} {
		res, err := build.Run(sources, build.Options{Instrument: true, Jobs: jobs})
		if err != nil {
			t.Fatalf("-j%d: %v", jobs, err)
		}
		got := res.Program.String()
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("-j%d produced a different program", jobs)
		}
	}
}

// TestConcurrentBuildsSharedCache hammers one disk-backed cache from many
// goroutines building overlapping programs — exercising the memory map,
// the atomic object writes, the kept graph, the functions one build's
// compile shares with the last and the scheduler together.
func TestConcurrentBuildsSharedCache(t *testing.T) {
	cache, err := build.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := bench.OpenSSLCodebase(6, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sources := map[string]string{}
			for k, v := range base {
				sources[k] = v
			}
			// Half the builders add a file in one of two versions, so
			// hits and misses race, and a build on the graph another
			// kept recompiles one of its functions and shares the other.
			if i%2 == 1 {
				sources["extra.c"] = fmt.Sprintf("int extra(int x) { return x + %d; }\nint extra_b(int x) { return x * 2; }\n", i%4)
			}
			res, err := build.Run(sources, build.Options{Instrument: true, Jobs: 4, Cache: cache})
			if err != nil {
				errs <- err
				return
			}
			if res.Program == nil || len(res.Autos) != 1 {
				errs <- fmt.Errorf("builder %d: bad result", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEveryNodeScheduledOnce: the dependency counter must release each
// node exactly once — no node may stay pending or run twice.
func TestEveryNodeScheduledOnce(t *testing.T) {
	sources := bench.OpenSSLCodebase(8, 3)
	res, err := build.Run(sources, build.Options{Instrument: true, Check: true, Elide: true, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, n := range res.Nodes {
		seen[n.ID]++
		if n.Status == build.StatusSkipped {
			t.Errorf("%s skipped in a successful build", n.ID)
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("%s reported %d times", id, c)
		}
	}
	// Per file: parse record + iface + compile + analyse + instrument,
	// plus combine/defs/automata/rawlink/check/link.
	files := len(sources)
	want := files /*parse*/ + 4*files + 6
	if len(res.Nodes) != want {
		t.Errorf("node count = %d, want %d", len(res.Nodes), want)
	}
}

// TestNodeDurations: every node a cold build ran reports its own time.
// Parse records are not nodes: a parse is timed in the node that
// demanded it.
func TestNodeDurations(t *testing.T) {
	res, err := build.Run(bench.OpenSSLCodebase(8, 3), build.Options{Instrument: true, Check: true, Elide: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if strings.HasPrefix(n.ID, "parse:") {
			continue
		}
		if n.Status != build.StatusBuilt || n.Dur <= 0 {
			t.Errorf("%s: %s in %v; want built in a positive time", n.ID, n.Status, n.Dur)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes into
// a layer: name, layer, start, end, parent span and op id. Spans live in
// memory per goroutine ("lane", so recording takes no lock) and are
// written out when the run ends. A layer's self time is its spans' time
// minus the part their child spans cover.

// maxSpansPerLane bounds the spans kept for the file; the self-time
// ledger still counts every span.
const maxSpansPerLane = 50_000

type span struct {
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the same lane, -1 for none
	Op     int64  `json:"op"`
}

type openSpan struct {
	name, layer string
	start       time.Time
	child       time.Duration
	idx         int
}

// layerTime is one layer's self time and call count.
type layerTime struct {
	calls int64
	self  time.Duration
}

// spanLog owns the lanes of one traced run.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// lane is one goroutine's span recorder. A nil *lane records nothing, so
// untraced code paths call the same methods at no cost.
type lane struct {
	log     *spanLog
	id      int
	op      int64
	spans   []span
	stack   []openSpan
	self    map[string]*layerTime
	dropped int64
}

// lane opens a new lane; nil when the run is untraced.
func (s *spanLog) lane() *lane {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &lane{log: s, id: len(s.lanes), self: map[string]*layerTime{}}
	s.lanes = append(s.lanes, l)
	return l
}

// setOp tags the spans begun from now on with op id.
func (l *lane) setOp(op int64) {
	if l != nil {
		l.op = op
	}
}

func (l *lane) begin(layer, name string) {
	if l == nil {
		return
	}
	idx := -1
	if len(l.spans) < maxSpansPerLane {
		idx = len(l.spans)
		parent := -1
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].idx
		}
		l.spans = append(l.spans, span{Lane: l.id, Name: name, Layer: layer, Parent: parent, Op: l.op})
	} else {
		l.dropped++
	}
	l.stack = append(l.stack, openSpan{name: name, layer: layer, start: time.Now(), idx: idx})
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	now := time.Now()
	n := len(l.stack) - 1
	o := l.stack[n]
	l.stack = l.stack[:n]
	d := now.Sub(o.start)
	if o.idx >= 0 {
		l.spans[o.idx].Start = o.start.Sub(l.log.base).Nanoseconds()
		l.spans[o.idx].End = now.Sub(l.log.base).Nanoseconds()
	}
	lt := l.self[o.layer]
	if lt == nil {
		lt = &layerTime{}
		l.self[o.layer] = lt
	}
	lt.calls++
	lt.self += d - o.child
	if n > 0 {
		l.stack[n-1].child += d
	}
}

// timed runs fn inside a span on ln and returns its duration, which is
// measured whether or not the run is traced.
func timed(ln *lane, layer, name string, fn func()) time.Duration {
	ln.begin(layer, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	ln.end()
	return d
}

// selfOf is the lane's self time in layer so far.
func (l *lane) selfOf(layer string) time.Duration {
	if l == nil || l.self[layer] == nil {
		return 0
	}
	return l.self[layer].self
}

// ledger sums self time per layer across lanes.
func (s *spanLog) ledger() map[string]layerTime {
	out := map[string]layerTime{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.lanes {
		for layer, lt := range l.self {
			t := out[layer]
			t.calls += lt.calls
			t.self += lt.self
			out[layer] = t
		}
	}
	return out
}

// printLedger writes the self-time ledger: one row per layer with its
// calls, total self time, self time per op and share of all span time,
// followed by the rows priced by ablation (layers whose work runs inside
// another layer's call, so no span can separate it).
func printLedger(w io.Writer, s *spanLog, ops int64, ablation []ablationRow) {
	led := s.ledger()
	layers := make([]string, 0, len(led))
	var total time.Duration
	for layer, lt := range led {
		layers = append(layers, layer)
		total += lt.self
	}
	sort.Slice(layers, func(i, j int) bool { return led[layers[i]].self > led[layers[j]].self })
	fmt.Fprintf(w, "  self-time ledger (%d ops, spans from the benchmark's calls into each layer)\n", ops)
	fmt.Fprintf(w, "    %-12s %10s %12s %12s %7s\n", "layer", "calls", "self ms", "self us/op", "share")
	for _, layer := range layers {
		lt := led[layer]
		perOp := 0.0
		if ops > 0 {
			perOp = float64(lt.self.Nanoseconds()) / 1e3 / float64(ops)
		}
		fmt.Fprintf(w, "    %-12s %10d %12.2f %12.3f %6.1f%%\n", layer, lt.calls,
			float64(lt.self.Nanoseconds())/1e6, perOp, 100*float64(lt.self)/float64(max(total, 1)))
	}
	for _, a := range ablation {
		fmt.Fprintf(w, "    %-12s %10s %12s %12.3f %7s  (ablation: %s)\n", a.layer, "-", "-", a.usPerOp, "", a.how)
	}
}

// ablationRow is one layer's cost measured as the difference between two
// rungs of the same ops.
type ablationRow struct {
	layer   string
	usPerOp float64
	how     string
}

// write saves every kept span as JSON.
func (s *spanLog) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	var spans []span
	var dropped int64
	for _, l := range s.lanes {
		spans = append(spans, l.spans...)
		dropped += l.dropped
	}
	s.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, dropped, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

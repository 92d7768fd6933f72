package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds. Values below 64
// are exact; larger ones land in buckets 1/64 of an octave wide (at most
// 1.6% relative width), so memory stays constant however many operations a
// run makes. Quantiles interpolate linearly inside their bucket, so they
// move smoothly with the data instead of snapping to bucket edges.
type hist struct {
	counts []uint64
	n      uint64
}

const histSub = 64

func newHist() *hist { return &hist{counts: make([]uint64, histSub*59)} }

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // ≥ 6
	m := (v >> (e - 6)) & (histSub - 1)
	return histSub + (e-6)*histSub + int(m)
}

// histBounds is the [lo, hi) value range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	k := i - histSub
	shift := k / histSub
	m := uint64(k % histSub)
	return float64((histSub + m) << shift), float64((histSub + m + 1) << shift)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, hi := histBounds(len(h.counts) - 1)
	return (lo + hi) / 2
}

// us and ms convert a nanosecond quantile for reporting.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// usage is one reading of the process's resource counters: wall clock,
// CPU time (user + system, all threads, from getrusage) and bytes
// allocated on the Go heap since start.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	metrics.Read(allocSample)
	return usage{wall: time.Now(), cpu: cpu, alloc: allocSample[0].Value.Uint64()}
}

// spent is the resource use between two readings.
type spent struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func (u usage) until(v usage) spent {
	return spent{wall: v.wall.Sub(u.wall), cpu: v.cpu - u.cpu, alloc: v.alloc - u.alloc}
}

func (s *spent) add(o spent) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.alloc += o.alloc
}

// rep is one measured repetition of a workload.
type rep struct {
	ops, errs int64
	used      spent
	lat       *hist
}

// sample is what a run measured: every repetition plus every timed
// set-up. The end-to-end metrics derive from it the same way for every
// workload.
type sample struct {
	setups []float64 // seconds
	reps   []rep
}

func (s *sample) ops() (ops, errs int64) {
	for _, r := range s.reps {
		ops += r.ops
		errs += r.errs
	}
	return
}

// endToEnd computes the metrics every workload reports: throughput, CPU
// and allocation per op as medians over repetitions, set-up time as the
// median set-up, and latency percentiles by percentileOver.
func (s *sample) endToEnd() map[string]float64 {
	var rate, cpu, alloc []float64
	var lats []*hist
	for _, r := range s.reps {
		if r.ops == 0 {
			continue
		}
		lats = append(lats, r.lat)
		rate = append(rate, float64(r.ops)/r.used.wall.Seconds())
		cpu = append(cpu, float64(r.used.cpu.Microseconds())/float64(r.ops))
		alloc = append(alloc, float64(r.used.alloc)/float64(r.ops))
	}
	return map[string]float64{
		"setup_s":        median(s.setups),
		"ops_per_s":      median(rate),
		"op_p50_us":      us(percentileOver(lats, 0.50)),
		"op_p99_us":      us(percentileOver(lats, 0.99)),
		"cpu_us_per_op":  median(cpu),
		"alloc_b_per_op": median(alloc),
	}
}

// percentileOver is the q-quantile of a run's latency samples, in ns.
// When every repetition has at least ten samples beyond the quantile it is
// the median of the repetitions' quantiles, so a burst of interference from
// outside the process that hits one repetition does not move it; otherwise
// the samples are pooled.
func percentileOver(lats []*hist, q float64) float64 {
	var per []float64
	for _, h := range lats {
		if float64(h.n)*(1-q) < 10 {
			pooled := newHist()
			for _, h := range lats {
				pooled.merge(h)
			}
			return pooled.quantile(q)
		}
		per = append(per, h.quantile(q))
	}
	return median(per)
}

func count(hs []*hist) uint64 {
	var n uint64
	for _, h := range hs {
		n += h.n
	}
	return n
}

// closedLoop runs one closed-loop repetition: each of goroutines load
// goroutines calls op back to back, first for warm (untimed, so caches
// fill and lazy set-up finishes), then for window, timing every call.
func closedLoop(goroutines int, warm, window time.Duration, op func(g int) error) rep {
	errs := make([]int64, goroutines)
	runGoroutines := func(d time.Duration, lats []*hist, ops []int64) {
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t := time.Now()
				for t.Before(deadline) {
					err := op(g)
					end := time.Now()
					if err != nil {
						errs[g]++
					}
					if lats != nil {
						lats[g].record(end.Sub(t))
						ops[g]++
					}
					t = end
				}
			}(g)
		}
		wg.Wait()
	}
	runGoroutines(warm, nil, nil)
	runtime.GC()

	lats := make([]*hist, goroutines)
	for g := range lats {
		lats[g] = newHist()
	}
	ops := make([]int64, goroutines)
	before := readUsage()
	runGoroutines(window, lats, ops)
	r := rep{used: before.until(readUsage()), lat: newHist()}
	for g := range lats {
		r.lat.merge(lats[g])
		r.ops += ops[g]
		r.errs += errs[g]
	}
	return r
}

// closedReps runs a closed-loop workload for the run's length: each
// repetition times setups set-ups, keeps the last one's load, and drives
// it with closedLoop.
func closedReps[L any](c *config, every time.Duration, setups, goroutines int, setup func(last bool) (L, error), op func(l L, g int) error) (*sample, []L, error) {
	s := &sample{}
	var loads []L
	reps, window := repsFor(c, every)
	for r := 0; r < reps; r++ {
		var load L
		for i := 0; i < setups; i++ {
			secs, err := timeSetup(func() (err error) {
				load, err = setup(i == setups-1)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			s.setups = append(s.setups, secs)
		}
		s.reps = append(s.reps, closedLoop(goroutines, warmup(window), window, func(g int) error {
			return op(load, g)
		}))
		loads = append(loads, load)
	}
	return s, loads, nil
}

// warmup is the untimed lead-in of each repetition.
func warmup(window time.Duration) time.Duration {
	return min(window/10, 300*time.Millisecond)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// repsFor splits a run into repetitions of about every each: many short
// repetitions let a median shrug off a burst of interference from outside
// the process.
func repsFor(c *config, every time.Duration) (int, time.Duration) {
	total := seconds(c.seconds)
	n := max(1, int(math.Round(float64(total)/float64(every))))
	return n, total / time.Duration(n)
}

// timeSetup runs fn and returns its wall time in seconds.
func timeSetup(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same method as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match ones computed there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

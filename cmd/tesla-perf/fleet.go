package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tesla/internal/agg"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
)

// fleet: one program event followed all the way to a fleet query. Two
// producers each run an instrumented session program on their own VM and
// batched monitor, record it, and stream 20 ms delta traces through a
// write-ahead-spooled agg client over loopback TCP to one in-process agg
// server that snapshots every second. Producers run open loop at a fixed
// rate; a timer-driven reader queries the server beside the writes. One op
// is one vm.Run of the session; one op in 40 (seeded) plants exactly one
// violation, and detection latency runs from the producer's Fail
// notification to the first query whose failure count includes it.

const (
	fleetProducers = 2
	fleetRate      = 2000 // ops per second per producer; the pair keeps two cores about a third busy
	fleetViolation = 40   // one op in this many plants a violation
	fleetRep       = time.Second
	fleetFlush     = 20 * time.Millisecond
	fleetSnapshot  = time.Second
	fleetQuery     = time.Millisecond // the failures query cadence
	fleetFleetTick = 20               // every 20th query asks for the fleet summary
	fleetIdle      = 5 * time.Second  // ServerOpts.IdleTimeout
	fleetWait      = 10 * time.Second // bound on every teardown wait
	fleetBatch     = 256
	// fleetCaptured bounds the delta traces a traced run keeps per
	// producer for the encode and replayed-apply measurements.
	fleetCaptured = 400
)

// sessionProgram is the fleet's workload program: a session touches 8
// keys, and each use is asserted (TESLA_GLOBAL, bounded by the session)
// to follow a check of the same key. The producer calls session(base,
// bad) directly; bad names the one key whose check is skipped, -1 none.
const sessionProgram = `
int check_key(int k) {
	return 0;
}

int use_key(int k) {
	TESLA_GLOBAL(call(session), returnfrom(session), previously(check_key(k) == 0));
	return k;
}

int session(int base, int bad) {
	int i = 0;
	while (i < 8) {
		int k = base + i;
		if (k != bad) {
			int r = check_key(k);
		}
		int u = use_key(k);
		i++;
	}
	return 0;
}
`

// fleetInputs generates one producer's op arguments from the seed.
type fleetInputs struct {
	rng       *rand.Rand
	keyBase   int64
	violateAt int64
}

func newFleetInputs(seed int64, producer int) *fleetInputs {
	rng := rand.New(rand.NewSource(seed*7919 + int64(producer)))
	return &fleetInputs{rng: rng, keyBase: rng.Int63n(1 << 30)}
}

// next returns op i's session arguments; ops must be drawn in order.
func (in *fleetInputs) next(i int64) (base, bad int64) {
	if i%fleetViolation == 0 {
		in.violateAt = in.rng.Int63n(fleetViolation)
	}
	base = in.keyBase + (i%4096)*8
	bad = -1
	if i%fleetViolation == in.violateAt {
		bad = base + in.rng.Int63n(8)
	}
	return base, bad
}

// detector is the benchmark's own handler: it timestamps every violation
// the producer's monitor reports, the start of detection latency.
type detector struct {
	core.NopHandler
	mu    sync.Mutex
	fails []time.Time
}

func (d *detector) Fail(*core.Violation) {
	d.mu.Lock()
	d.fails = append(d.fails, time.Now())
	d.mu.Unlock()
}

func (d *detector) failTimes() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.fails...)
}

// sendMark is one delta handed to SendTrace: when the call returned and
// the producer's cumulative events sent by then.
type sendMark struct {
	at     time.Time
	events uint64
}

type fleetProducer struct {
	name    string
	rt      *toolchain.Runtime
	rec     *trace.Recorder
	client  *agg.Client
	pub     *agg.Publisher // untraced runs flush through the publisher
	det     *detector
	in      *fleetInputs
	planted int64

	ops, errs int64
	sendErrs  int64 // counted by the flusher goroutine
	lat, late *hist

	// Traced runs make the publisher's two calls themselves.
	lane, flushLane *lane
	cut             *trace.Cut
	sent            uint64
	cuts, sends     *hist
	cutEvents       []int
	ringDropped     uint64
	captured        [][]byte
	capturedEvents  uint64
	encode          time.Duration
	markMu          sync.Mutex
	marks           []sendMark
}

// fleetRig is one repetition's server, producers and reader.
type fleetRig struct {
	traced    bool
	snapPath  string
	srv       *agg.Server
	store     *agg.Store
	serveDone chan error
	producers []*fleetProducer
	buildTime time.Duration
	stalls    []string

	stopFlush, stopRead chan struct{}
	flushers, reader    sync.WaitGroup

	readerLane, snapLane *lane
	queries, fleetQuery  *hist
	detect, wire, snaps  *hist
	snapBytes            int64
	detMu                sync.Mutex
	detected             []int // per producer, failures seen by the reader
	summary              agg.FleetSummary
}

func setupFleet(c *config, rep int, traced bool) (*fleetRig, error) {
	dir := filepath.Join(c.workdir, fmt.Sprintf("fleet-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &fleetRig{
		traced:    traced,
		snapPath:  filepath.Join(dir, "fleet.snap"),
		stopFlush: make(chan struct{}),
		stopRead:  make(chan struct{}),
		queries:   newHist(), fleetQuery: newHist(), detect: newHist(), wire: newHist(), snaps: newHist(),
		detected: make([]int, fleetProducers),
	}
	var b *toolchain.Build
	var err error
	r.buildTime = timed(c.spans.lane(), "build", "toolchain.BuildProgramOpts", func() {
		b, err = toolchain.BuildProgramOpts(map[string]string{"session.c": sessionProgram}, toolchain.BuildOptions{Instrument: true})
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.store = agg.NewStore(agg.StoreOpts{Seed: c.seed})
	r.srv = agg.NewServer(r.store, agg.ServerOpts{IdleTimeout: fleetIdle})
	r.serveDone = make(chan error, 1)
	go func() { r.serveDone <- r.srv.Serve(ln) }()
	if traced {
		r.store.SetDurable(true) // as SnapshotEvery does; the benchmark's own ticker snapshots
		r.readerLane, r.snapLane = c.spans.lane(), c.spans.lane()
	} else {
		r.srv.SnapshotEvery(r.snapPath, fleetSnapshot)
	}

	for i := 0; i < fleetProducers; i++ {
		p := &fleetProducer{
			name: fmt.Sprintf("producer-%d", i),
			det:  &detector{},
			in:   newFleetInputs(c.seed, i),
			lat:  newHist(), late: newHist(), cuts: newHist(), sends: newHist(),
		}
		if err := p.start(b, ln.Addr().String(), dir); err != nil {
			r.teardownProducers()
			r.close()
			return nil, err
		}
		if traced {
			p.lane, p.flushLane = c.spans.lane(), c.spans.lane()
		} else {
			p.pub = agg.NewPublisher(p.rec, p.client)
			p.pub.Start(fleetFlush)
		}
		r.producers = append(r.producers, p)
	}
	return r, nil
}

// start gives the producer its spool, connection, recorder and runtime.
func (p *fleetProducer) start(b *toolchain.Build, addr, dir string) error {
	spool, err := trace.OpenSpool(filepath.Join(dir, "spool-"+p.name), trace.SpoolOpts{Sync: trace.SpoolSyncInterval})
	if err != nil {
		return err
	}
	p.client, err = agg.Dial(addr, agg.ClientOpts{Tool: "tesla-perf", Process: p.name, Spool: spool})
	if err != nil {
		spool.Close()
		return err
	}
	p.rec = trace.NewRecorder(b.Autos, 0)
	p.rt, err = b.NewRuntime(monitor.Options{
		Handler:   core.MultiHandler{p.det, p.rec},
		Tap:       p.rec,
		BatchSize: fleetBatch,
	})
	if err != nil {
		p.client.Close()
		p.client = nil
		return err
	}
	p.rt.VM.MaxSteps = 1 << 62 // the step budget counts across all of the VM's runs
	return nil
}

// generate runs the producer's open loop: op i is due at start + i/rate.
// An op is timed from when it started; how late it started against when it
// was due is recorded apart (gen.late_ms_p99). Timing from the due time
// would mostly measure the platform's timer: sleeps here wake on a
// millisecond grid, so a 15 µs op read as 600 µs, and every scheduler or
// GC stall, amplified by the ops queued behind it, made the tail swing by
// half from run to run. Ops due before measureFrom are the untimed warm-up.
func (p *fleetProducer) generate(start, measureFrom, end time.Time) {
	interval := time.Second / fleetRate
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		began := time.Now()
		base, bad := p.in.next(i)
		p.lane.setOp(i)
		p.lane.begin("vm", "vm.Run")
		_, err := p.rt.VM.Run("session", base, bad)
		p.lane.end()
		done := time.Now()
		if bad >= 0 {
			p.planted++
		}
		if err != nil {
			p.errs++
		}
		if due.Before(measureFrom) {
			continue
		}
		p.ops++
		p.lat.record(done.Sub(began))
		p.late.record(began.Sub(due))
	}
}

// flush is the traced run's Publisher.Flush, made call by call so the cut
// and the send each get a span: cut the delta since the last flush, keep
// the first deltas' wire payloads, send.
func (p *fleetProducer) flush() {
	var tr *trace.Trace
	p.cuts.record(timed(p.flushLane, "trace", "trace.Recorder.CutSince", func() {
		tr, p.cut = p.rec.CutSince(p.cut)
	}))
	p.ringDropped += tr.Dropped
	if len(tr.Events) == 0 && tr.Dropped == 0 {
		return
	}
	p.cutEvents = append(p.cutEvents, len(tr.Events))
	if len(p.captured) < fleetCaptured {
		var payload []byte
		p.encode += timed(p.flushLane, "trace", "trace.Write", func() {
			payload = encodeDelta(uint64(len(p.captured)+1), tr)
		})
		p.captured = append(p.captured, payload)
		p.capturedEvents += uint64(len(tr.Events))
	}
	var err error
	p.sends.record(timed(p.flushLane, "agg", "agg.Client.SendTrace", func() { err = p.client.SendTrace(tr) }))
	if err != nil {
		p.sendErrs++
		return
	}
	p.sent += uint64(len(tr.Events))
	p.markMu.Lock()
	p.marks = append(p.marks, sendMark{at: time.Now(), events: p.sent})
	p.markMu.Unlock()
}

// encodeDelta builds the sequenced wire payload the client sends for tr:
// sequence number, event count, binary trace.
func encodeDelta(seq uint64, tr *trace.Trace) []byte {
	var body bytes.Buffer
	var prefix [binary.MaxVarintLen64]byte
	body.Write(prefix[:binary.PutUvarint(prefix[:], uint64(len(tr.Events)))])
	_ = trace.Write(&body, tr) // writes to a bytes.Buffer cannot fail
	return agg.EncodeSeqTrace(seq, body.Bytes())
}

// every runs fn on a ticker until stop closes.
func every(wg *sync.WaitGroup, stop <-chan struct{}, d time.Duration, fn func(tick int)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-stop:
				return
			case <-t.C:
				fn(tick)
			}
		}
	}()
}

// read is one reader tick: a failures query (every fleetFleetTick-th tick
// also a fleet summary), then detection bookkeeping. Traced runs also read
// the store's per-producer totals for the wire lag.
func (r *fleetRig) read(tick int) {
	var res []byte
	var err error
	r.queries.record(timed(r.readerLane, "agg", "agg.Server.Answer", func() {
		res, err = r.srv.Answer(agg.Query{Q: "failures"})
	}))
	now := time.Now()
	var sites []agg.FailureSite
	if err == nil && json.Unmarshal(res, &sites) == nil {
		r.noteFailures(sites, now)
	}
	if tick%fleetFleetTick == 0 {
		d := timed(r.readerLane, "agg", "agg.Server.Answer", func() {
			_, _ = r.srv.Answer(agg.Query{Q: "fleet"}) // timed only; the checks read the store
		})
		r.queries.record(d)
		r.fleetQuery.record(d)
	}
	if r.traced {
		r.noteWireLag(r.store.Fleet(), time.Now())
	}
}

func (r *fleetRig) noteFailures(sites []agg.FailureSite, now time.Time) {
	counts := map[string]int{}
	for _, s := range sites {
		for _, pc := range s.PerProcess {
			counts[pc.Process] += int(pc.Count)
		}
	}
	r.detMu.Lock()
	defer r.detMu.Unlock()
	for i, p := range r.producers {
		n := counts[p.name]
		if n <= r.detected[i] {
			continue
		}
		fails := p.det.failTimes()
		for k := r.detected[i]; k < n && k < len(fails); k++ {
			r.detect.record(now.Sub(fails[k]))
		}
		r.detected[i] = n
	}
}

func (r *fleetRig) detectedTotal() int {
	r.detMu.Lock()
	defer r.detMu.Unlock()
	n := 0
	for _, d := range r.detected {
		n += d
	}
	return n
}

func (r *fleetRig) noteWireLag(sum agg.FleetSummary, now time.Time) {
	visible := map[string]uint64{}
	for _, ps := range sum.Producers {
		visible[ps.Process] = ps.Events
	}
	for _, p := range r.producers {
		p.markMu.Lock()
		n := 0
		for n < len(p.marks) && p.marks[n].events <= visible[p.name] {
			r.wire.record(now.Sub(p.marks[n].at))
			n++
		}
		p.marks = p.marks[n:]
		p.markMu.Unlock()
	}
}

// errStall marks a bounded wait that ran out: the run counts it as a
// failure instead of hanging.
var errStall = errors.New("timed out")

// within runs fn and waits at most d for it to return.
func within(d time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return errStall
	}
}

// waitFor polls cond every millisecond for at most d.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return errStall
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (r *fleetRig) stall(what string, err error) {
	if err != nil {
		r.stalls = append(r.stalls, fmt.Sprintf("%s: %v", what, err))
	}
}

// teardownProducers closes every producer's client, each within a bound:
// Close drains the stream and waits for the server to take the bye.
func (r *fleetRig) teardownProducers() {
	for _, p := range r.producers {
		if p.client != nil {
			r.stall(p.name+" close", within(fleetWait, p.client.Close))
		}
	}
}

// close shuts the server down within a bound: a stalled Close (the
// accept/close race can pin it until IdleTimeout) is recorded, not waited
// out.
func (r *fleetRig) close() {
	r.stall("server close", within(fleetWait, r.srv.Close))
	select {
	case <-r.serveDone:
	case <-time.After(fleetWait):
		r.stall("serve loop", errStall)
	}
}

// measure runs the open loop for window after warm, then drains every
// producer's stream, checks the fleet's verdicts and tears down. Every
// wait is bounded; a stall is counted as a failure.
func (r *fleetRig) measure(warm, window time.Duration, o *outcome) rep {
	start := time.Now().Add(10 * time.Millisecond)
	measureFrom := start.Add(warm)
	end := measureFrom.Add(window)
	every(&r.reader, r.stopRead, fleetQuery, r.read)
	if r.traced {
		for _, p := range r.producers {
			every(&r.flushers, r.stopFlush, fleetFlush, func(int) { p.flush() })
		}
		every(&r.flushers, r.stopFlush, fleetSnapshot, func(int) {
			var err error
			r.snaps.record(timed(r.snapLane, "agg", "agg.Server.SnapshotNow", func() { err = r.srv.SnapshotNow(r.snapPath) }))
			if fi, serr := os.Stat(r.snapPath); err == nil && serr == nil {
				r.snapBytes = fi.Size()
			}
		})
	}
	var wg sync.WaitGroup
	for _, p := range r.producers {
		wg.Add(1)
		go func(p *fleetProducer) {
			defer wg.Done()
			p.generate(start, measureFrom, end)
		}(p)
	}
	time.Sleep(time.Until(measureFrom))
	before := readUsage()
	wg.Wait()
	rp := rep{used: before.until(readUsage()), lat: newHist()}

	// Drain: every staged event reaches the store and the recorder, and
	// the final delta is cut and sent.
	close(r.stopFlush)
	r.flushers.Wait()
	var planted int64
	notified := 0
	for _, p := range r.producers {
		rp.ops += p.ops
		rp.lat.merge(p.lat)
		planted += p.planted
		if err := p.rt.Monitor.Drain(); err != nil {
			p.errs++
		}
		if r.traced {
			p.flush()
		} else if err := p.pub.Stop(); err != nil {
			p.errs++
		}
		rp.errs += p.errs + p.sendErrs
		notified += len(p.det.failTimes())
	}
	r.stall("detection", waitFor(fleetWait, func() bool { return r.detectedTotal() >= notified }))
	close(r.stopRead)
	r.reader.Wait()
	detected := r.detectedTotal()

	r.teardownProducers()
	r.stall("byes", waitFor(fleetWait, func() bool { return r.store.Fleet().CleanProducers >= fleetProducers }))
	r.summary = r.store.Fleet()
	r.close()
	r.check(o, planted, notified, detected)
	return rp
}

// check: the fleet counts exactly the violations the inputs planted, each
// producer's monitor reported each of them, the reader saw them all, and
// every recorded event reached the store.
func (r *fleetRig) check(o *outcome, planted int64, notified, detected int) {
	sum := r.summary
	wrong := absDiff(int64(sum.TotalFailures), planted)
	o.check("fleet verdicts", wrong == 0 && int64(notified) == planted,
		"fleet counted %d failure(s), monitors reported %d, inputs planted %d", sum.TotalFailures, notified, planted)
	undetected := int64(max(notified-detected, 0))
	o.check("detected", undetected == 0, "reader saw %d of %d violation(s)", detected, notified)
	byName := map[string]agg.ProducerStat{}
	for _, ps := range sum.Producers {
		byName[ps.Process] = ps
	}
	var lost int64
	for _, p := range r.producers {
		ps := byName[p.name]
		recorded := p.rec.EventCount()
		lost += absDiff(int64(ps.Events), int64(recorded))
		o.check(p.name+" stream", ps.Clean && ps.Events == recorded,
			"clean=%v, fleet holds %d event(s), recorder recorded %d", ps.Clean, ps.Events, recorded)
	}
	drops := int64(sum.DroppedEvents + sum.ClientDropped + sum.RingDropped)
	o.check("no drops", drops == 0, "%d event(s) dropped by server queues, clients or rings", drops)
	o.check("teardown", len(r.stalls) == 0, "%d stalled wait(s) %v", len(r.stalls), r.stalls)
	o.failed += wrong + undetected + lost + drops + int64(len(r.stalls))
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

func runFleet(c *config) (*outcome, error) {
	o := &outcome{}
	s := &sample{}
	var detect, queries []*hist
	late := newHist()
	reps, window := repsFor(c, fleetRep)
	for i := 0; i < reps; i++ {
		var rig *fleetRig
		secs, err := timeSetup(func() (err error) {
			rig, err = setupFleet(c, i, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, secs)
		s.reps = append(s.reps, rig.measure(warmup(window), window, o))
		detect = append(detect, rig.detect)
		queries = append(queries, rig.queries)
		for _, p := range rig.producers {
			late.merge(p.late)
		}
	}
	o.metrics = s.endToEnd()
	o.metrics["detect_p50_ms"] = ms(percentileOver(detect, 0.50))
	o.metrics["detect_p95_ms"] = ms(percentileOver(detect, 0.95))
	o.metrics["query_p50_us"] = us(percentileOver(queries, 0.50))
	ops, errs := s.ops()
	o.attempted = ops
	o.failed += errs
	fmt.Fprintf(c.log, "  samples: %d ops, %d detections, %d queries; generator late p99 %.3f ms\n",
		ops, count(detect), count(queries), ms(late.quantile(0.99)))
	return o, nil
}

// fleetRung is one ablation rung: the fleet's ops, closed loop on one
// goroutine, on a runtime configured by opts. Its cost is the mean per op,
// not a percentile: the batched plane defers most of an op's monitor and
// recorder work to the ring flush that every fourteenth op or so pays.
type fleetRung struct {
	usPerOp, stepsPerOp, eventsPerOp float64
}

func runFleetRung(seed int64, b *toolchain.Build, opts monitor.Options, tap *countingTap, d time.Duration) (fleetRung, error) {
	rt, err := b.NewRuntime(opts)
	if err != nil {
		return fleetRung{}, err
	}
	rt.VM.MaxSteps = 1 << 62
	in := newFleetInputs(seed, 0)
	var ops, timed int64
	var spent time.Duration
	warmEnd := time.Now().Add(d / 10)
	end := time.Now().Add(d)
	for t := time.Now(); t.Before(end); ops++ {
		base, bad := in.next(ops)
		if _, err := rt.VM.Run("session", base, bad); err != nil {
			return fleetRung{}, err
		}
		done := time.Now()
		if t.After(warmEnd) {
			spent += done.Sub(t)
			timed++
		}
		t = done
	}
	r := fleetRung{usPerOp: float64(spent.Nanoseconds()) / 1e3 / float64(max(timed, 1)), stepsPerOp: float64(rt.VM.Steps()) / float64(ops)}
	if tap != nil {
		if rt.Monitor != nil {
			rt.Monitor.Drain()
		}
		r.eventsPerOp = float64(tap.total()) / float64(ops)
	}
	return r, nil
}

// replayApply prices the server's apply path: the captured wire payloads
// go through BeginSeqFrame/ApplySeqFrame on a fresh store.
func replayApply(o *outcome, ps []*fleetProducer) float64 {
	store := agg.NewStore(agg.StoreOpts{})
	var spent time.Duration
	var events uint64
	for _, p := range ps {
		for _, payload := range p.captured {
			seq, n, body, err := agg.SeqTraceInfo(payload)
			if err != nil {
				o.check("replay", false, "%v", err)
				return 0
			}
			start := time.Now()
			if store.BeginSeqFrame(p.name, seq, n) {
				err = store.ApplySeqFrame(p.name, seq, body)
			}
			spent += time.Since(start)
			if err != nil {
				o.check("replay", false, "%v", err)
				return 0
			}
			events += n
		}
	}
	got := store.Fleet().TotalEvents
	o.check("replay", got == events && events > 0, "replayed %d captured event(s), store holds %d", events, got)
	return float64(spent.Nanoseconds()) / float64(max(events, 1))
}

// traceFleet runs one traced repetition, then prices what runs inside
// vm.Run by ablation — the same ops on a plain build, an instrumented
// build without a recorder, and one with it — and the server's apply
// path by replaying captured frames.
func traceFleet(c *config) (*outcome, error) {
	o := &outcome{}
	window := seconds(c.seconds * 0.7)
	rungTime := seconds(c.seconds * 0.1)
	var rig *fleetRig
	secs, err := timeSetup(func() (err error) {
		rig, err = setupFleet(c, 0, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &sample{setups: []float64{secs}}
	s.reps = append(s.reps, rig.measure(warmup(window), window, o))
	o.metrics = s.endToEnd()
	o.metrics["detect_p50_ms"] = ms(rig.detect.quantile(0.50))
	o.metrics["detect_p95_ms"] = ms(rig.detect.quantile(0.95))
	o.metrics["query_p50_us"] = us(rig.queries.quantile(0.50))
	ops, errs := s.ops()
	o.attempted = ops
	o.failed += errs

	src := map[string]string{"session.c": sessionProgram}
	plainBuild, err := toolchain.BuildProgramOpts(src, toolchain.BuildOptions{})
	if err != nil {
		return nil, err
	}
	instrBuild, err := toolchain.BuildProgramOpts(src, toolchain.BuildOptions{Instrument: true})
	if err != nil {
		return nil, err
	}
	plain, err := runFleetRung(c.seed, plainBuild, monitor.Options{}, nil, rungTime)
	if err != nil {
		return nil, err
	}
	tap := &countingTap{}
	instr, err := runFleetRung(c.seed, instrBuild, monitor.Options{Handler: &detector{}, Tap: tap, BatchSize: fleetBatch}, tap, rungTime)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(instrBuild.Autos, 0)
	recorded, err := runFleetRung(c.seed, instrBuild, monitor.Options{Handler: core.MultiHandler{&detector{}, rec}, Tap: rec, BatchSize: fleetBatch}, nil, rungTime)
	if err != nil {
		return nil, err
	}

	cuts, sends, late := newHist(), newHist(), newHist()
	var cutEvents, cutsN int
	var ringDropped, capturedEvents uint64
	var encode time.Duration
	var mons []*monitor.Monitor
	for _, p := range rig.producers {
		cuts.merge(p.cuts)
		sends.merge(p.sends)
		late.merge(p.late)
		for _, n := range p.cutEvents {
			cutEvents += n
		}
		cutsN += len(p.cutEvents)
		ringDropped += p.ringDropped
		capturedEvents += p.capturedEvents
		encode += p.encode
		mons = append(mons, p.rt.Monitor)
	}
	var h healthSum
	h.add(mons...)
	var dups uint64
	for _, ps := range rig.summary.Producers {
		dups += ps.DupFrames
	}
	o.layers = map[string]float64{
		"build.cold_ms":             float64(rig.buildTime.Nanoseconds()) / 1e6,
		"vm.plain_us_per_op":        plain.usPerOp,
		"vm.steps_per_op":           plain.stepsPerOp,
		"monitor.events_per_op":     instr.eventsPerOp,
		"monitor.us_per_op":         instr.usPerOp - plain.usPerOp,
		"monitor.ns_per_event":      (instr.usPerOp - plain.usPerOp) * 1e3 / instr.eventsPerOp,
		"monitor.overhead_x":        instr.usPerOp / plain.usPerOp,
		"trace.recorder_us_per_op":  recorded.usPerOp - instr.usPerOp,
		"trace.cut_us_p50":          us(cuts.quantile(0.50)),
		"trace.cut_us_p99":          us(cuts.quantile(0.99)),
		"trace.events_per_cut":      float64(cutEvents) / float64(max(cutsN, 1)),
		"trace.encode_ns_per_event": float64(encode.Nanoseconds()) / float64(max(capturedEvents, 1)),
		"trace.ring_dropped":        float64(ringDropped),
		"agg.send_us_p50":           us(sends.quantile(0.50)),
		"agg.send_us_p99":           us(sends.quantile(0.99)),
		"agg.apply_ns_per_event":    replayApply(o, rig.producers),
		"agg.wire_lag_ms_p50":       ms(rig.wire.quantile(0.50)),
		"agg.wire_lag_ms_p99":       ms(rig.wire.quantile(0.99)),
		"agg.query_us_p99":          us(rig.queries.quantile(0.99)),
		"agg.fleet_query_us_p50":    us(rig.fleetQuery.quantile(0.50)),
		"agg.snapshot_ms":           ms(rig.snaps.quantile(0.50)),
		"agg.snapshot_bytes":        float64(rig.snapBytes),
		"agg.dropped_events":        float64(rig.summary.DroppedEvents + rig.summary.ClientDropped),
		"agg.dup_frames":            float64(dups),
		"gen.late_ms_p99":           ms(late.quantile(0.99)),
	}
	h.layers(o.layers)
	traced := o.attempted
	o.ledger = func(w io.Writer) {
		printLedger(w, c.spans, traced, []ablationRow{
			{"vm", plain.usPerOp, "plain build, mean per op"},
			{"monitor", instr.usPerOp - plain.usPerOp, "instrumented minus plain, mean per op"},
			{"trace", recorded.usPerOp - instr.usPerOp, "with recorder minus without, mean per op"},
		})
	}
	return o, nil
}

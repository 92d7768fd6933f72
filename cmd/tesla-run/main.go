// tesla-run compiles, instruments and executes a csub program under TESLA:
// the full §4 workflow in one command. Violations are reported as they are
// detected; with -failure stop (TESLA's default behaviour in the paper)
// the first violation aborts execution. With -trace, every program and
// automaton lifecycle event is recorded to a trace file for offline replay
// and shrinking with tesla-trace. The build runs through the parallel
// content-hash-cached graph: -j bounds the workers, -cache persists
// artifacts across runs, and -explain reports which graph nodes were
// cache hits versus rebuilt.
//
// With -agg, the run additionally streams its lifecycle events live to a
// tesla-agg fleet aggregation server: deltas are cut from the trace rings
// on an interval (-agg-flush) and sent without ever blocking the monitored
// program, and the final health counters ride along at exit. -agg implies
// recording (an in-memory recorder is created when -trace is absent).
//
// Crash durability: -trace-spool writes the trace incrementally to a
// segmented write-ahead spool, flushed every -spool-flush, so a SIGKILL
// loses at most one flush interval of events (plus any backlog an
// in-flight flush had not yet appended) — tesla-trace reads the
// spool directory like a trace file. -agg-spool write-ahead-logs the
// fleet stream the same way; after a crash, `tesla-agg resend` replays
// the spool and closes the run's fleet accounting exactly once (it
// requires a stable -agg-process identity). Both flags refuse a
// non-empty directory: a leftover spool is an earlier run's evidence.
//
// Usage:
//
//	tesla-run [-debug] [-trace out.tr] [-entry main]
//	          [-trace-spool dir] [-spool-flush dur] [-spool-sync policy]
//	          [-agg addr] [-agg-flush dur] [-agg-process name]
//	          [-agg-spool dir]
//	          [-j N] [-cache dir] [-explain] [-health] [-failure mode]
//	          [-overflow policy] [-quarantine-after K] [-rearm N]
//	          [-batch N] [-arg N]... file.c...
//
// -failure and -overflow set one supervision policy for every automaton:
// -failure is report or stop, -overflow is drop-new, evict-oldest or
// quarantine.
//
// -batch N switches the monitor to the batched per-thread event plane: each
// thread stages up to N events in a local ring and applies them to the
// global store in runs, amortising stripe locking. 0 (the default) keeps
// the synchronous reference path. Verdicts are identical either way; batch
// only changes when events are applied, never whether.
//
// Exit status distinguishes the three failure layers: 1 for assertion
// violations (the monitored program is wrong), 2 for build/usage errors (the
// input is wrong), 3 for monitor-internal degradation on an otherwise clean
// run (the monitor itself hit overflow, quarantine, suppression or handler
// faults — its verdict is incomplete and must not be trusted as a pass).
// Aggregation losses count as degradation too: a run whose stream to the
// fleet dropped frames exits 3 unless a violation (1) outranks it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tesla/internal/agg"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/toolchain/cli"
	"tesla/internal/trace"
)

func main() {
	tool := cli.New("tesla-run",
		"[-debug] [-trace out.tr] [-agg addr] [-j N] [-cache dir] [-explain] [-health] [-failure mode] [-overflow policy] [-batch N] [-arg N]... file.c...")
	debug := flag.Bool("debug", false, "trace automaton events (TESLA_DEBUG-style output)")
	tracePath := flag.String("trace", "", "record an event trace to this file (.json for JSON, else binary)")
	traceCap := flag.Int("trace-buf", 0, "per-thread trace ring capacity in events (0 = default)")
	traceSpool := flag.String("trace-spool", "", "record the trace crash-durably into this write-ahead spool directory")
	spoolFlush := flag.Duration("spool-flush", 25*time.Millisecond, "flush interval for -trace-spool (bounds what a SIGKILL can lose)")
	spoolSync := flag.String("spool-sync", "always", "spool fsync policy: always, interval or none")
	aggAddr := flag.String("agg", "", "stream lifecycle events to a tesla-agg server at this address")
	aggFlush := flag.Duration("agg-flush", 100*time.Millisecond, "delta flush interval for -agg")
	aggProcess := flag.String("agg-process", "", "process name reported to -agg (default host:pid)")
	aggSpool := flag.String("agg-spool", "", "write-ahead spool directory for -agg (crash-durable exactly-once delivery)")
	entry := flag.String("entry", "main", "entry function")
	batch := flag.Int("batch", 0, "per-thread event ring size for batched dispatch (0 = synchronous reference path)")
	health := flag.Bool("health", false, "print the per-class monitor health report to stderr after the run")
	failureMode := flag.String("failure", "report", "violation action: report or stop")
	overflow := flag.String("overflow", "drop-new", "instance-table overflow policy: drop-new, evict-oldest or quarantine")
	quarAfter := flag.Int("quarantine-after", 0, "consecutive overflows before a class is quarantined (0 = default)")
	rearm := flag.Int("rearm", 0, "suppressed events before a quarantined class re-arms (0 = default)")
	buildFlags := cli.RegisterBuildFlags()
	var args intList
	flag.Var(&args, "arg", "integer argument to the entry function (repeatable)")
	sources := tool.LoadSources(tool.ParseSourceArgs())

	failure, err := core.ParseFailureAction(*failureMode)
	if err != nil {
		tool.FatalCode(2, err)
	}
	overflowPol, err := core.ParseOverflowPolicy(*overflow)
	if err != nil {
		tool.FatalCode(2, err)
	}

	opts := toolchain.BuildOptions{Instrument: true}
	buildFlags.Apply(&opts)
	build, err := toolchain.BuildProgramOpts(sources, opts)
	if err != nil {
		tool.FatalCode(2, err)
	}

	counting := core.NewCountingHandler()
	handler := core.MultiHandler{counting}
	if *debug {
		handler = append(handler, &core.PrintHandler{W: os.Stderr})
	}
	monOpts := monitor.Options{
		BatchSize:       *batch,
		Failure:         failure,
		Overflow:        overflowPol,
		QuarantineAfter: *quarAfter,
		RearmEvents:     *rearm,
	}
	var rec *trace.Recorder
	if *tracePath != "" || *aggAddr != "" || *traceSpool != "" {
		rec = trace.NewRecorder(build.Autos, *traceCap)
		handler = append(handler, rec)
		monOpts.Tap = rec
	}
	monOpts.Handler = handler
	rt, err := build.NewRuntime(monOpts)
	if err != nil {
		tool.FatalCode(2, err)
	}
	rt.VM.Out = os.Stdout

	syncPolicy, err := trace.ParseSpoolSync(*spoolSync)
	if err != nil {
		tool.FatalCode(2, err)
	}

	// Crash-durable trace recording: deltas are cut from the rings every
	// -spool-flush and appended to the write-ahead spool, so the trace on
	// disk is always a valid prefix of the run — a SIGKILL loses at most
	// one interval plus an in-flight flush's backlog.
	var spoolW *trace.SpoolWriter
	if *traceSpool != "" {
		sp := openEmptySpool(tool, *traceSpool, syncPolicy,
			"replay or archive it with tesla-trace, then point -trace-spool at a fresh directory")
		spoolW = trace.NewSpoolWriter(rec, sp)
		spoolW.Start(*spoolFlush)
	}

	// Live fleet streaming: dial before the run so a version rejection or
	// unreachable server is a usage error (2), not a mid-run surprise.
	var pub *agg.Publisher
	var aggClient *agg.Client
	if *aggSpool != "" && *aggAddr == "" {
		tool.FatalCode(2, fmt.Errorf("-agg-spool requires -agg"))
	}
	if *aggAddr != "" {
		process := *aggProcess
		if process == "" {
			host, _ := os.Hostname()
			process = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		clientOpts := agg.ClientOpts{Tool: "tesla-run", Process: process}
		if *aggSpool != "" {
			if *aggProcess == "" {
				tool.FatalCode(2, fmt.Errorf("-agg-spool requires an explicit -agg-process: the default host:pid identity changes on restart, and server-side exactly-once dedup is keyed by it"))
			}
			clientOpts.Spool = openEmptySpool(tool, *aggSpool, syncPolicy,
				"deliver it with `tesla-agg resend` first")
		}
		aggClient, err = agg.Dial(*aggAddr, clientOpts)
		if err != nil {
			tool.FatalCode(2, err)
		}
		pub = agg.NewPublisher(rec, aggClient)
		pub.Start(*aggFlush)
	}

	ret, runErr := rt.VM.Run(*entry, args...)
	// Process exit is a required-site drain for the batched event plane:
	// every staged event must reach the store and the trace rings before the
	// trace is saved, the final agg delta is cut, or any verdict is counted.
	// A nil monitor (a program without assertions) has nothing staged.
	if rt.Monitor != nil {
		rt.Monitor.Drain()
	}
	// The trace is saved on every exit path: an aborted (fail-stop) run's
	// trace is exactly what shrinking wants. The fleet stream likewise
	// finishes on every exit path — final delta, health counters, bye —
	// before any exit code is chosen, so the fleet view of an aborted run
	// is complete.
	if rec != nil && *tracePath != "" {
		saveTrace(tool, rec, *tracePath)
	}
	spoolDegraded := finishSpool(spoolW, *traceSpool)
	aggDegraded := finishAgg(pub, aggClient, rt.Monitor)
	aggDegraded = aggDegraded || spoolDegraded
	if *health {
		printHealth(rt.Monitor)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tesla-run: execution aborted: %v\n", runErr)
		exitViolations(counting)
		os.Exit(1)
	}
	fmt.Printf("%s returned %d\n", *entry, ret)

	if exitViolations(counting) {
		os.Exit(1)
	}
	// A clean verdict from a degraded monitor is not a clean verdict: if
	// any class overflowed, suppressed events, quarantined or lost handler
	// notifications, report it and exit 3 so scripts can tell "held" from
	// "couldn't watch". Losing part of the fleet stream is the same kind
	// of incompleteness — the fleet's view of this run cannot be trusted.
	if degradedClasses(rt.Monitor) || aggDegraded {
		if !*health { // -health already printed the table above
			printHealth(rt.Monitor)
		}
		fmt.Fprintln(os.Stderr, "tesla-run: DEGRADED: monitor lost coverage; verdict incomplete")
		os.Exit(3)
	}
	fmt.Printf("all %d assertions held\n", len(build.Autos))
}

// openEmptySpool opens (or creates) a write-ahead spool directory and
// refuses one that already holds frames: a leftover spool is a crashed
// run's evidence, and appending a second run to it would interleave two
// traces into one stream.
func openEmptySpool(tool *cli.Tool, dir string, sync trace.SpoolSync, remedy string) *trace.Spool {
	sp, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: sync})
	if err != nil {
		tool.FatalCode(2, err)
	}
	if sp.FrameCount() > 0 {
		sp.Close()
		tool.FatalCode(2, fmt.Errorf("spool %s is not empty — it holds an earlier run; %s", dir, remedy))
	}
	return sp
}

// finishSpool takes the final cut into the trace spool and reports
// whether any of the run's events failed to reach it (reduced
// durability: the events were still monitored, but a replay of the spool
// would be incomplete — surfaced as degradation so scripts can tell).
func finishSpool(w *trace.SpoolWriter, dir string) bool {
	if w == nil {
		return false
	}
	if err := w.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "tesla-run: trace spool: final flush: %v\n", err)
	}
	if frames, events := w.Lost(); frames > 0 {
		fmt.Fprintf(os.Stderr, "tesla-run: trace spool: lost %d frame(s) / %d event(s) to write failures\n", frames, events)
		return true
	}
	fmt.Fprintf(os.Stderr, "tesla-run: trace spool complete in %s\n", dir)
	return false
}

// finishAgg flushes the final delta, ships the health counters and
// delivers the bye accounting. It reports whether the stream degraded —
// anything the fleet did not receive and count.
func finishAgg(pub *agg.Publisher, c *agg.Client, m *monitor.Monitor) bool {
	if c == nil {
		return false
	}
	degraded := false
	if err := pub.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "tesla-run: agg: final flush: %v\n", err)
		degraded = true
	}
	if m != nil {
		if err := c.SendHealth(m.Health()); err != nil {
			fmt.Fprintf(os.Stderr, "tesla-run: agg: health: %v\n", err)
			degraded = true
		}
	}
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tesla-run: agg: %v\n", err)
		degraded = true
	}
	st := c.Stats()
	if st.Degraded() {
		fmt.Fprintf(os.Stderr, "tesla-run: agg: stream degraded: dropped %d frame(s) / %d event(s)\n",
			st.DroppedFrames, st.DroppedEvents)
		degraded = true
	}
	if st.ByeLingerExpired > 0 {
		// Not a loss the producer can count: the bye was written, but the
		// server never closed its end, so whether it was read is unknown.
		fmt.Fprintf(os.Stderr, "tesla-run: agg: bye linger expired %d time(s): the server did not confirm the final accounting\n",
			st.ByeLingerExpired)
	}
	return degraded
}

// degradedClasses reports whether any class's health counters show lost
// coverage. A nil monitor (a program without assertions) is never degraded.
func degradedClasses(m *monitor.Monitor) bool {
	return m != nil && m.Degraded()
}

// printHealth writes the per-class health table to stderr.
func printHealth(m *monitor.Monitor) {
	if m == nil {
		fmt.Fprintln(os.Stderr, "tesla-run: health: no monitor (program has no assertions)")
		return
	}
	fmt.Fprintln(os.Stderr, "tesla-run: health:")
	for _, ch := range m.Health() {
		state := "ok"
		switch {
		case ch.Quarantined:
			state = "QUARANTINED"
		case ch.Degraded():
			state = "degraded"
		}
		fmt.Fprintf(os.Stderr,
			"  %-24s %-11s live=%d violations=%d overflows=%d evictions=%d suppressed=%d quarantines=%d handler-panics=%d\n",
			ch.Class, state, ch.Live, ch.Violations, ch.Overflows, ch.Evictions,
			ch.Suppressed, ch.Quarantines, ch.HandlerPanics)
	}
}

// exitViolations prints the detailed violation list on stdout and the
// one-line machine-greppable summary on stderr, returning whether any
// violation occurred.
func exitViolations(counting *core.CountingHandler) bool {
	vs := counting.Violations()
	if len(vs) == 0 {
		return false
	}
	fmt.Printf("%d TESLA violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Printf("  %v\n", v)
	}
	fmt.Fprintf(os.Stderr, "tesla-run: FAIL: %d violation(s), first: %s\n", len(vs), vs[0].Signature())
	return true
}

func saveTrace(tool *cli.Tool, rec *trace.Recorder, path string) {
	tr := rec.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		tool.Fatal(err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteJSON(f, tr)
	} else {
		err = trace.Write(f, tr)
	}
	if err != nil {
		tool.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tesla-run: wrote %d event(s) to %s\n", len(tr.Events), path)
}

type intList []int64

func (l *intList) String() string { return fmt.Sprint([]int64(*l)) }

func (l *intList) Set(s string) error {
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

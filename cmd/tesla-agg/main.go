// tesla-agg is the fleet-scale trace aggregation service: many monitored
// processes (`tesla-run -agg`) stream their lifecycle traces and health
// counters to one tesla-agg, which merges them into a queryable store —
// "which assertion failed where, fleet-wide" without collecting and
// replaying every process's trace file by hand.
//
// Usage:
//
//	tesla-agg serve [-listen addr] [-queue N] [-samples K] [-window N]
//	                [-snapshot path] [-snapshot-interval dur] [-idle-timeout dur]
//	tesla-agg query [-addr addr] [-class name] [-k N] (fleet|failures|topk|samples|health)
//	tesla-agg resend [-addr addr] -process name [-rm] spooldir
//
// Addresses are TCP host:port by default; "unix:/path" (or any spelling
// containing a path separator) selects a unix socket. Query output is
// indented JSON with a stable field order, so scripts can diff it.
//
// Crash consistency: with -snapshot, serve persists the store atomically
// on an interval and restores it at startup, so a crashed or restarted
// server resumes with its counts intact; producers only treat frames as
// delivered once a snapshot covers them, and resends of anything newer
// deduplicate by sequence number — fleet counts survive crashes on
// either side without double-counting. `tesla-agg resend` replays a
// crashed producer's write-ahead spool (tesla-run -agg-spool) and closes
// its accounting exactly once.
//
// Degradation is never silent: every bounded queue that overflows counts
// its drops per producer, and the fleet query reports them next to the
// ingested totals, so the numbers always sum to what producers sent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"tesla/internal/agg"
	"tesla/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		cmdServe(args)
	case "query":
		cmdQuery(args)
	case "resend":
		cmdResend(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tesla-agg serve [-listen addr] [-queue N] [-samples K] [-window N]
                  [-snapshot path] [-snapshot-interval dur] [-idle-timeout dur]
  tesla-agg query [-addr addr] [-class name] [-k N] (fleet|failures|topk|samples|health)
  tesla-agg resend [-addr addr] -process name [-rm] spooldir`)
	os.Exit(2)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9590", "listen address (host:port, or unix:/path)")
	queue := fs.Int("queue", 0, "per-connection pending-frame queue bound (0 = default)")
	samples := fs.Int("samples", 0, "failure-sample reservoir size per site (0 = default)")
	window := fs.Int("window", 0, "events of leading context kept per failure sample (0 = default)")
	quiet := fs.Bool("quiet", false, "suppress connection diagnostics")
	snapPath := fs.String("snapshot", "", "persist the store to this file and restore it at startup")
	snapEvery := fs.Duration("snapshot-interval", 0, "snapshot interval for -snapshot (0 = default)")
	idle := fs.Duration("idle-timeout", 0, "disconnect producers silent this long (0 = default, negative disables)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}

	ln, err := agg.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "tesla-agg: "+format+"\n", a...)
	}
	if *quiet {
		logf = nil
	}
	store := agg.NewStore(agg.StoreOpts{SampleCap: *samples, Window: *window})
	if *snapPath != "" {
		snap, err := agg.LoadSnapshot(*snapPath)
		if err != nil {
			fatal(err)
		}
		if snap != nil {
			store.Restore(snap)
			fmt.Fprintf(os.Stderr, "tesla-agg: restored %d event(s) across %d producer(s) from %s\n",
				snap.TotalEvents, len(snap.Producers), *snapPath)
		}
	}
	srv := agg.NewServer(store, agg.ServerOpts{Queue: *queue, IdleTimeout: *idle, Logf: logf})
	if *snapPath != "" {
		srv.SnapshotEvery(*snapPath, *snapEvery)
	}

	// SIGINT/SIGTERM shut the server down in order: stop accepting, close
	// live connections, drain their queues — so counts visible at exit are
	// final, not racing ingestion — then take one last snapshot of the
	// drained state.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "tesla-agg: shutting down")
		srv.Close()
		close(drained)
	}()

	fmt.Fprintf(os.Stderr, "tesla-agg: listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	// Serve returns as soon as the listener closes; wait for Close to
	// finish draining every connection's queue, then persist the final
	// drained state — the snapshot a restart will resume from.
	<-drained
	if *snapPath != "" {
		if err := srv.SnapshotNow(*snapPath); err != nil {
			fmt.Fprintf(os.Stderr, "tesla-agg: final snapshot: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "tesla-agg: final snapshot written to %s\n", *snapPath)
		}
	}
	// Final fleet summary on shutdown, for the operator's terminal.
	sum, _ := json.MarshalIndent(store.Fleet(), "", "  ")
	fmt.Println(string(sum))
}

// cmdResend replays a crashed producer's write-ahead spool into the
// server and closes its fleet accounting. Safe to re-run: the server
// skips or deduplicates everything already delivered.
func cmdResend(args []string) {
	fs := flag.NewFlagSet("resend", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9590", "tesla-agg server address")
	process := fs.String("process", "", "producer identity the spool belongs to (its -agg-process)")
	rm := fs.Bool("rm", false, "remove the spool directory after a successful resend")
	fs.Parse(args)
	if fs.NArg() != 1 || *process == "" {
		usage()
	}
	dir := fs.Arg(0)
	st, err := agg.ResumeSpool(*addr, *process, dir, agg.ResumeOpts{})
	if note := st.Recovered.Note(); note != "" {
		fmt.Fprintf(os.Stderr, "tesla-agg: spool %s %s\n", dir, note)
	}
	if err != nil {
		fatal(err)
	}
	// A linger expiry means the bye was written but the server never
	// closed its end: whether it read the bye is unknown, so say so.
	linger := ""
	if st.ByeLingerExpired > 0 {
		linger = fmt.Sprintf(", bye linger expired %d time(s)", st.ByeLingerExpired)
	}
	fmt.Fprintf(os.Stderr,
		"tesla-agg: resend complete: %d frame(s) / %d event(s) in spool, %d resent, %d already delivered%s\n",
		st.Frames, st.Events, st.Resent, st.Skipped, linger)
	if *rm {
		if err := os.RemoveAll(dir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tesla-agg: removed %s\n", dir)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9590", "tesla-agg server address")
	class := fs.String("class", "", "automaton class (topk, samples)")
	k := fs.Int("k", 10, "top-K size (topk)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	q := agg.Query{Q: fs.Arg(0), Class: *class, K: *k}

	res, err := runQuery(*addr, q)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(res)
	fmt.Println()
}

// runQuery performs one query round trip over the wire protocol.
func runQuery(addr string, q agg.Query) ([]byte, error) {
	conn, err := net.Dial(agg.SplitAddr(addr))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	fw := trace.NewFrameWriter(conn)
	fr := trace.NewFrameReader(conn)
	hello, _ := json.Marshal(agg.Hello{
		Proto: agg.ProtoVersion, Codec: trace.Version, Tool: "tesla-agg", Query: true,
	})
	if _, err := conn.Write([]byte(agg.Magic)); err != nil {
		return nil, err
	}
	if err := fw.Frame(agg.FrameHello, hello); err != nil {
		return nil, err
	}
	kind, payload, err := fr.Next()
	if err != nil || kind != agg.FrameHelloAck {
		return nil, fmt.Errorf("no hello ack from %s: %v", addr, err)
	}
	var ack agg.HelloAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		return nil, err
	}
	if !ack.OK {
		return nil, fmt.Errorf("%s rejected the connection: %s", addr, ack.Message)
	}
	body, _ := json.Marshal(q)
	if err := fw.Frame(agg.FrameQuery, body); err != nil {
		return nil, err
	}
	kind, payload, err = fr.Next()
	if err != nil || kind != agg.FrameResult {
		return nil, fmt.Errorf("no result from %s: %v", addr, err)
	}
	var fail struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &fail) == nil && fail.Error != "" {
		return nil, fmt.Errorf("%s: %s", addr, fail.Error)
	}
	return payload, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tesla-agg:", err)
	os.Exit(2)
}

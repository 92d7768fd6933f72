package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"tesla/internal/agg"
	"tesla/internal/trace"
)

// TestCrashGate is the process-level half of the crash gate (the
// in-process half is internal/agg's TestCrashSchedules): it SIGKILLs
// real tesla-run producers and a real tesla-agg server at randomized
// points and asserts the two durability invariants the ISSUE promises.
//
//   - Trace spool: whatever a killed run left in -trace-spool recovers
//     to a verbatim prefix of an uninterrupted run's trace — same
//     events, same order, nothing invented, nothing silently dropped.
//   - Fleet accounting: after a producer crash, `tesla-agg resend`
//     replays the write-ahead spool and the server's seq dedup plus
//     snapshot/restore keep every event counted exactly once, across a
//     server SIGKILL and restart on the same address.
func TestCrashGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{
		"tesla-agg":   filepath.Join(dir, "tesla-agg"),
		"tesla-run":   filepath.Join(dir, "tesla-run"),
		"tesla-trace": filepath.Join(dir, "tesla-trace"),
	}
	for pkg, out := range bins {
		cmd := exec.Command("go", "build", "-o", out, "tesla/cmd/"+pkg)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, b)
		}
	}
	src := filepath.Join("testdata", "worker.c")
	rng := rand.New(rand.NewSource(20260807))

	// Reference run: the uncrashed trace every recovered spool must be a
	// prefix of. worker.c is deterministic, so one reference serves all.
	refPath := filepath.Join(dir, "ref.tr")
	run := exec.Command(bins["tesla-run"], "-trace", refPath, "-arg", workerIters, src)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	ref := readTraceFile(t, refPath)
	if ref.Dropped != 0 || len(ref.Events) == 0 {
		t.Fatalf("reference trace unusable: %d events, %d dropped", len(ref.Events), ref.Dropped)
	}

	t.Run("SpoolPrefix", func(t *testing.T) { spoolPrefixSweep(t, bins, src, ref, rng) })
	t.Run("ExactlyOnce", func(t *testing.T) { exactlyOnceDance(t, bins, src, ref, rng) })
}

// workerIters sizes worker.c so an uninterrupted run lasts long enough
// to kill mid-flight (~0.7s) while its event total stays under the
// default per-thread ring — no overwrites, so spool prefixes are exact.
const workerIters = "3000"

// spoolPrefixSweep SIGKILLs -trace-spool runs at random points and
// asserts every recovered spool is a verbatim prefix of the reference.
func spoolPrefixSweep(t *testing.T, bins map[string]string, src string, ref *trace.Trace, rng *rand.Rand) {
	const kills = 8
	recovered := 0
	for i := 0; i < kills; i++ {
		spool := filepath.Join(t.TempDir(), "spool")
		run := exec.Command(bins["tesla-run"],
			"-trace-spool", spool, "-spool-sync", "always", "-arg", workerIters, src)
		if err := run.Start(); err != nil {
			t.Fatalf("start run %d: %v", i, err)
		}
		delay := time.Duration(30+rng.Intn(650)) * time.Millisecond
		time.Sleep(delay)
		run.Process.Kill()
		run.Wait()

		tr, _, err := trace.ReadSpool(spool)
		if err != nil {
			// A kill before the first flush leaves an empty spool: a
			// trivially valid (empty) prefix, not a failure.
			if strings.Contains(err.Error(), "no recoverable frames") {
				t.Logf("kill %d at %v: spool empty", i, delay)
				continue
			}
			t.Fatalf("kill %d at %v: recover spool: %v", i, delay, err)
		}
		if tr.Dropped != 0 {
			t.Fatalf("kill %d: recovered spool reports %d dropped events", i, tr.Dropped)
		}
		if len(tr.Events) > len(ref.Events) {
			t.Fatalf("kill %d: spool has %d events, reference only %d", i, len(tr.Events), len(ref.Events))
		}
		for j := range tr.Events {
			if !reflect.DeepEqual(tr.Events[j], ref.Events[j]) {
				t.Fatalf("kill %d at %v: event %d diverges from reference:\n  spool: %+v\n  ref:   %+v",
					i, delay, j, tr.Events[j], ref.Events[j])
			}
		}
		recovered++
		t.Logf("kill %d at %v: %d/%d events recovered, exact prefix", i, delay, len(tr.Events), len(ref.Events))

		// Once, drive the operator path too: tesla-trace show on the raw
		// spool directory must recover and print the same event count.
		if recovered == 1 {
			out, err := exec.Command(bins["tesla-trace"], "show", spool).Output()
			if err != nil {
				t.Fatalf("tesla-trace show %s: %v", spool, err)
			}
			want := fmt.Sprintf("%d events", len(tr.Events))
			if !strings.Contains(strings.SplitN(string(out), "\n", 2)[0], want) {
				t.Fatalf("tesla-trace show header lacks %q:\n%s", want, out)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no kill point recovered any frames — the sweep tested nothing")
	}
}

// exactlyOnceDance crashes a producer mid-stream and the server after a
// resend, restarts the server from its snapshot on the same address,
// resends again, and asserts the fleet counts come out exactly once.
func exactlyOnceDance(t *testing.T, bins map[string]string, src string, ref *trace.Trace, rng *rand.Rand) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "agg.sock")
	snap := filepath.Join(dir, "snap.json")
	serve := func() *exec.Cmd {
		srv := exec.Command(bins["tesla-agg"], "serve", "-listen", "unix:"+sock, "-quiet",
			"-snapshot", snap, "-snapshot-interval", "30ms")
		srv.Stderr = os.Stderr
		if err := srv.Start(); err != nil {
			t.Fatalf("start serve: %v", err)
		}
		// The stale socket file of a killed predecessor may still exist,
		// so wait for the new server to actually accept, not for the path.
		waitForAccept(t, sock)
		return srv
	}
	srv := serve()
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// A clean producer runs to completion: its accounting is the control —
	// crash handling must not disturb the ordinary path.
	cleanSpool := filepath.Join(dir, "clean-spool")
	run := exec.Command(bins["tesla-run"], "-agg", "unix:"+sock, "-agg-process", "clean",
		"-agg-spool", cleanSpool, "-arg", "300", src)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("clean producer: %v\n%s", err, out)
	}
	const cleanOracle = 300 * 13 // 13 events per worker.c step()

	// The crash victim: killed mid-stream, its write-ahead spool is the
	// only complete record of what it sent.
	crashSpool := filepath.Join(dir, "crash-spool")
	victim := exec.Command(bins["tesla-run"], "-agg", "unix:"+sock, "-agg-process", "crashed",
		"-agg-spool", crashSpool, "-arg", workerIters, src)
	if err := victim.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	time.Sleep(time.Duration(150+rng.Intn(350)) * time.Millisecond)
	victim.Process.Kill()
	victim.Wait()

	spoolFrames, spoolEvents := aggSpoolTotals(t, crashSpool)
	if spoolFrames == 0 {
		t.Skip("victim died before spooling anything — nothing to resend")
	}
	t.Logf("victim spool: %d frames / %d events", spoolFrames, spoolEvents)

	resend := func(extra ...string) {
		t.Helper()
		args := append([]string{"resend", "-addr", "unix:" + sock, "-process", "crashed"}, extra...)
		args = append(args, crashSpool)
		if out, err := exec.Command(bins["tesla-agg"], args...).CombinedOutput(); err != nil {
			t.Fatalf("resend %v: %v\n%s", extra, err, out)
		}
	}
	resend()

	// Let the snapshot loop cover the resend, then SIGKILL the server —
	// the socket file stays behind, and the restart must reclaim it and
	// resume from the snapshot.
	time.Sleep(150 * time.Millisecond)
	srv.Process.Signal(syscall.SIGKILL)
	srv.Wait()
	srv = serve()

	// Resending the same spool again must deduplicate, not double-count;
	// -rm then retires the delivered spool.
	resend("-rm")
	if _, err := os.Stat(crashSpool); !os.IsNotExist(err) {
		t.Fatalf("resend -rm left the spool behind: %v", err)
	}

	out, err := exec.Command(bins["tesla-agg"], "query", "-addr", "unix:"+sock, "fleet").Output()
	if err != nil {
		t.Fatalf("fleet query: %v", err)
	}
	var sum agg.FleetSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	byName := map[string]agg.ProducerStat{}
	for _, p := range sum.Producers {
		byName[p.Process] = p
	}

	clean, ok := byName["clean"]
	if !ok || !clean.Clean {
		t.Fatalf("clean producer lost across server crash: %+v", byName)
	}
	if clean.SentEvents != cleanOracle || clean.Events+clean.DroppedEvents != cleanOracle {
		t.Fatalf("clean producer accounting: %+v (oracle %d)", clean, cleanOracle)
	}

	crashed, ok := byName["crashed"]
	if !ok || !crashed.Clean {
		t.Fatalf("crashed producer not closed by resend: %+v", byName)
	}
	// Exactly once: every spooled event is counted or explicitly dropped,
	// and never more than once — across a live stream, two resends, and a
	// server kill in between.
	if crashed.Events+crashed.DroppedEvents != spoolEvents {
		t.Fatalf("crashed producer counts %d+%d, spool holds %d: not exactly once: %+v",
			crashed.Events, crashed.DroppedEvents, spoolEvents, crashed)
	}
	if crashed.Events > uint64(len(ref.Events)) {
		t.Fatalf("crashed producer counts %d events, uncrashed run only emits %d",
			crashed.Events, len(ref.Events))
	}
	t.Logf("exactly once: crashed=%d/%d spooled events, dup frames seen: %d",
		crashed.Events, spoolEvents, crashed.DupFrames)
}

// aggSpoolTotals sums the sequenced frames in a tesla-run -agg-spool
// directory: the loss-free record of everything the producer sent.
func aggSpoolTotals(t *testing.T, dir string) (frames, events uint64) {
	t.Helper()
	sp, err := trace.OpenSpool(dir, trace.SpoolOpts{Sync: trace.SpoolSyncNone})
	if err != nil {
		t.Fatalf("open agg spool: %v", err)
	}
	defer sp.Close()
	err = sp.Range(func(payload []byte) error {
		_, n, _, err := agg.SeqTraceInfo(payload)
		if err != nil {
			return err
		}
		frames++
		events += n
		return nil
	})
	if err != nil {
		t.Fatalf("read agg spool: %v", err)
	}
	return frames, events
}

func waitForAccept(t *testing.T, sock string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err := net.DialTimeout("unix", sock, time.Second); err == nil {
			conn.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server on %s never accepted", sock)
}

func readTraceFile(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return tr
}

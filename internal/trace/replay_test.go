package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
)

// tracePrograms is the corpus for the replay-determinism property: csub
// programs spanning the behaviours that matter to tracing — guaranteed
// violations (both no-instance and incomplete), input-dependent violations,
// keyed instances (clone traffic), incallstack resolution, and safe runs.
var tracePrograms = []struct {
	name string
	src  string
}{
	{
		name: "doomed_previously",
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) { return do_work(x); }
`,
	},
	{
		name: "doomed_eventually",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) { return do_work(x); }
`,
	},
	{
		name: "conditional_event",
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(ANY(int))));
	return x;
}
int main(int x) {
	if (x > 0) {
		int r = security_check(x);
	}
	return do_work(x);
}
`,
	},
	{
		name: "keyed_event",
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(x)));
	return x;
}
int main(int x) {
	int r = security_check(x);
	int s = security_check(x + 1);
	return do_work(x);
}
`,
	},
	{
		name: "keyed_loop",
		src: `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(x)));
	return x;
}
int main(int x) {
	int i = 0;
	while (i < 4) {
		int r = security_check(i);
		i = i + 1;
	}
	return do_work(x);
}
`,
	},
	{
		name: "safe_eventually",
		src: `
int audit_log(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, eventually(audit_log(ANY(int))));
	return x;
}
int main(int x) {
	int w = do_work(x);
	int r = audit_log(x);
	return w;
}
`,
	},
}

// record builds the program instrumented, runs it for arg with a recorder
// and counting handler attached, and returns the trace plus live verdicts.
func record(t *testing.T, src string, arg int64) (*trace.Trace, *toolchain.Build, *core.CountingHandler) {
	t.Helper()
	build, err := toolchain.BuildProgram(map[string]string{"prog.c": src}, true)
	if err != nil {
		t.Fatal(err)
	}
	counting := core.NewCountingHandler()
	rec := trace.NewRecorder(build.Autos, 0)
	_, _, err = build.Run("main", monitor.Options{
		Handler: core.MultiHandler{counting, rec},
		Tap:     rec,
	}, arg)
	if err != nil {
		t.Fatalf("arg %d: live run failed: %v", arg, err)
	}
	return rec.Snapshot(), build, counting
}

// violationSigs projects violations onto comparable tuples.
func violationSigs(vs []*core.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Class.Name + "/" + v.Kind.String() + "/" + v.Key.String() +
			"/" + v.Symbol
	}
	return out
}

// TestReplayDeterminism is the tentpole property: for every corpus program
// and input, replaying the captured trace through fresh automata reproduces
// the live run's verdicts exactly — same violations (class, kind, key,
// symbol, order), same acceptance counts, same transition edge counts.
func TestReplayDeterminism(t *testing.T) {
	for _, tc := range tracePrograms {
		t.Run(tc.name, func(t *testing.T) {
			for arg := int64(-3); arg <= 6; arg++ {
				tr, build, live := record(t, tc.src, arg)
				if tr.Dropped != 0 {
					t.Fatalf("arg %d: %d events dropped", arg, tr.Dropped)
				}

				replayed := core.NewCountingHandler()
				m, err := monitor.New(monitor.Options{Handler: replayed}, build.Autos...)
				if err != nil {
					t.Fatal(err)
				}
				if err := trace.Feed(tr, m); err != nil {
					t.Fatalf("arg %d: replay: %v", arg, err)
				}

				liveV, replV := violationSigs(live.Violations()), violationSigs(replayed.Violations())
				if !reflect.DeepEqual(liveV, replV) {
					t.Fatalf("arg %d: violations differ\nlive:   %v\nreplay: %v", arg, liveV, replV)
				}
				for _, a := range build.Autos {
					if l, r := live.Accepts(a.Name), replayed.Accepts(a.Name); l != r {
						t.Fatalf("arg %d: %s accepts: live %d, replay %d", arg, a.Name, l, r)
					}
				}
				if l, r := live.Edges(), replayed.Edges(); !reflect.DeepEqual(l, r) {
					t.Fatalf("arg %d: transition edges differ\nlive:   %v\nreplay: %v", arg, l, r)
				}
			}
		})
	}
}

// TestReplayAfterCodecRoundTrip runs the same determinism check through a
// binary encode/decode and a JSON encode/decode, so what is proven for
// in-memory traces holds for trace files.
func TestReplayAfterCodecRoundTrip(t *testing.T) {
	tr, build, live := record(t, tracePrograms[0].src, 1)

	for _, enc := range []struct {
		name  string
		write func(*bytes.Buffer, *trace.Trace) error
	}{
		{"binary", func(b *bytes.Buffer, t *trace.Trace) error { return trace.Write(b, t) }},
		{"json", func(b *bytes.Buffer, t *trace.Trace) error { return trace.WriteJSON(b, t) }},
	} {
		t.Run(enc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := enc.write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			loaded, err := trace.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			res, err := trace.Replay(loaded, build.Autos)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Signatures(), sigsOf(live.Violations())) {
				t.Fatalf("verdicts after %s round-trip differ: %v vs %v",
					enc.name, res.Signatures(), sigsOf(live.Violations()))
			}
		})
	}
}

// TestReplayBadBoundSlot: a trace whose bound event names a slot the
// automata do not have fails its replay with an error instead of crashing
// the replayer.
func TestReplayBadBoundSlot(t *testing.T) {
	tr, build, _ := record(t, tracePrograms[0].src, 1)
	bound := 0
	for i := range tr.Events {
		if p := tr.Events[i].Prog; tr.Events[i].IsProgram() && (p == monitor.ProgBoundBegin || p == monitor.ProgBoundEnd) {
			bound++
			bad := *tr
			bad.Events = append([]trace.Event(nil), tr.Events...)
			bad.Events[i].Slot = 7
			if _, err := trace.Replay(&bad, build.Autos); err == nil {
				t.Fatalf("event %d (%s) with slot 7: replay succeeded", i, p)
			}
		}
	}
	if bound == 0 {
		t.Fatal("the recorded trace has no bound events")
	}
}

func sigsOf(vs []*core.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Signature()
	}
	return out
}

// TestShrinkMinimality checks the shrinker's contract on every violating
// corpus run: the shrunk trace still triggers the target violation, it is
// 1-minimal (removing any single remaining program event loses the
// violation), and whenever any event of the original was removable the
// shrinker removed at least one.
func TestShrinkMinimality(t *testing.T) {
	for _, tc := range tracePrograms {
		t.Run(tc.name, func(t *testing.T) {
			for arg := int64(-1); arg <= 1; arg++ {
				tr, build, live := record(t, tc.src, arg)
				if len(live.Violations()) == 0 {
					continue
				}
				res, err := trace.Shrink(tr, build.Autos)
				if err != nil {
					t.Fatalf("arg %d: %v", arg, err)
				}

				// Still violates the same way.
				rr, err := trace.Replay(res.Trace, build.Autos)
				if err != nil {
					t.Fatalf("arg %d: shrunk trace does not replay: %v", arg, err)
				}
				found := false
				for _, s := range rr.Signatures() {
					if s == res.Target {
						found = true
					}
				}
				if !found {
					t.Fatalf("arg %d: shrunk trace lost target %s (has %v)", arg, res.Target, rr.Signatures())
				}

				// 1-minimal: dropping any single program event loses it.
				progs := res.Trace.Programs()
				for i := range progs {
					cand := append(append([]trace.Event(nil), progs[:i]...), progs[i+1:]...)
					if replaysTo(t, cand, build, res.Target) {
						t.Fatalf("arg %d: not 1-minimal: event %d (%s) is removable", arg, i, &progs[i])
					}
				}

				// Progress: if any single original event is removable, the
				// shrinker must have removed something.
				orig := tr.Programs()
				removable := false
				for i := range orig {
					cand := append(append([]trace.Event(nil), orig[:i]...), orig[i+1:]...)
					if replaysTo(t, cand, build, res.Target) {
						removable = true
						break
					}
				}
				if removable && res.Removed == 0 {
					t.Fatalf("arg %d: events were removable but shrinker removed none", arg)
				}
			}
		})
	}
}

// replaysTo replays a bare program-event sequence and reports whether the
// target violation signature occurs.
func replaysTo(t *testing.T, events []trace.Event, build *toolchain.Build, target string) bool {
	t.Helper()
	sub, err := trace.RerecordOpts(events, build.Autos, monitor.Options{})
	if err != nil {
		return false
	}
	res, err := trace.Replay(sub, build.Autos)
	if err != nil {
		return false
	}
	for _, s := range res.Signatures() {
		if s == target {
			return true
		}
	}
	return false
}

// TestReportRendersCounterexample smoke-tests the reporter on a shrunk
// trace: the violation line, the timeline and the automaton path (and the
// DOT form) must all mention the failing class.
func TestReportRendersCounterexample(t *testing.T) {
	tr, build, _ := record(t, tracePrograms[1].src, 0) // doomed_eventually
	res, err := trace.Shrink(tr, build.Autos)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Report(&buf, res.Trace, build.Autos); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	class := build.Autos[0].Name
	for _, want := range []string{"violation:", class, "timeline"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	dot, err := trace.Dot(res.Trace, build.Autos, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(dot), []byte("digraph")) {
		t.Fatalf("dot output is not a digraph:\n%s", dot)
	}
}

// overloadSrc checks more keys than the default 32-slot instance table
// holds, then asserts the site for main's argument. Under EvictOldest the
// live run evicts the oldest binding (key 0), so arg 0 violates — but only
// when the replay runs under the same policy.
const overloadSrc = `
int security_check(int x) { return 0; }
int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(x)));
	return x;
}
int main(int x) {
	int i = 0;
	while (i < 40) {
		int r = security_check(i);
		i = i + 1;
	}
	return do_work(x);
}
`

// TestReplayPolicyFaithful: a run recorded under a non-default overflow
// policy replays to the live verdict only under the same policy —
// ReplayOpts/ShrinkOpts exist exactly for this, and a default replay of the
// same trace (where the evicted instance survives) must come up clean.
func TestReplayPolicyFaithful(t *testing.T) {
	build, err := toolchain.BuildProgram(map[string]string{"prog.c": overloadSrc}, true)
	if err != nil {
		t.Fatal(err)
	}
	pol := monitor.Options{Overflow: core.EvictOldest}
	counting := core.NewCountingHandler()
	rec := trace.NewRecorder(build.Autos, 0)
	live := pol
	live.Handler = core.MultiHandler{counting, rec}
	live.Tap = rec
	if _, _, err := build.Run("main", live, 0); err != nil {
		t.Fatalf("live run failed: %v", err)
	}
	if len(counting.Violations()) != 1 {
		t.Fatalf("live run: %d violations, want 1 (key 0 evicted)", len(counting.Violations()))
	}
	tr := rec.Snapshot()

	plain, err := trace.Replay(tr, build.Autos)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Violations) != 0 {
		t.Fatalf("default-policy replay: %v, want clean (nothing evicted under drop-new)", plain.Violations)
	}

	faithful, err := trace.ReplayOpts(tr, build.Autos, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := violationSigs(faithful.Violations), violationSigs(counting.Violations()); !reflect.DeepEqual(got, want) {
		t.Fatalf("policy replay = %v, want live verdicts %v", got, want)
	}

	if _, err := trace.Shrink(tr, build.Autos); err == nil {
		t.Fatal("default-policy shrink found a violation to preserve; expected it to refuse")
	}
	res, err := trace.ShrinkOpts(tr, build.Autos, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept == 0 || res.Removed == 0 {
		t.Fatalf("shrink kept %d / removed %d, want a real reduction", res.Kept, res.Removed)
	}
}

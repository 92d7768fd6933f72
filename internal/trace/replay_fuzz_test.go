package trace_test

import (
	"bytes"
	"testing"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
	"tesla/internal/toolchain"
	"tesla/internal/trace"
)

// fuzzReplaySrc asserts one automaton of each kind replay dispatches to:
// a keyed per-thread one, a global one bounded by its own call pair, one
// with an incallstack branch and one over a field assignment. Its
// instrumented run records Deliver, site and bound-slot events for each.
const fuzzReplaySrc = `
#define P_SUGID 256
struct proc { int p_flag; int p_uid; };

int security_check(int x) { return 0; }
int prepare(int x) { return 0; }
int start_op(int x) { return 0; }
int end_op(int x) { return 0; }
int mac_check(int vp) { return 0; }

int do_work(int x) {
	TESLA_WITHIN(main, previously(security_check(x)));
	return x;
}

int shared(int x) {
	TESLA_GLOBAL(call(start_op), returnfrom(end_op), previously(prepare(x) == 0));
	return x;
}

int ffs_read(int vp) {
	TESLA_WITHIN(main, incallstack(ufs_readdir) || previously(mac_check(vp) == 0));
	return vp;
}

int ufs_readdir(int vp) { return ffs_read(vp); }

int setuid(struct proc *p, int uid) {
	TESLA_WITHIN(main, eventually(p.p_flag = P_SUGID));
	p->p_uid = uid;
	if (uid != 0) {
		p->p_flag = P_SUGID;
	}
	return 0;
}

int main(int x) {
	int s = start_op(x);
	int c = security_check(x);
	int w = do_work(x);
	int q = prepare(x);
	int g = shared(x);
	int e = end_op(x);
	int r = ufs_readdir(x);
	int m = mac_check(x);
	int f = ffs_read(x);
	struct proc *p = alloc(proc);
	int u = setuid(p, x);
	return w + g + r + f + u;
}
`

// FuzzReplay drives decoded traces into monitors the way tesla-trace
// replay does: through ReplayOpts with default options, through ReplayOpts
// failing stop with evict-oldest overflow, and through Feed on a batched
// monitor. Input from outside the process must come back as an error,
// never a panic. The seeds are recorded runs, one of them with a bound
// event's slot out of range.
func FuzzReplay(f *testing.F) {
	build, err := toolchain.BuildProgram(map[string]string{"fuzz.c": fuzzReplaySrc}, true)
	if err != nil {
		f.Fatal(err)
	}
	for _, arg := range []int64{0, 1} {
		rec := trace.NewRecorder(build.Autos, 0)
		if _, _, err := build.Run("main", monitor.Options{Handler: rec, Tap: rec}, arg); err != nil {
			f.Fatal(err)
		}
		tr := rec.Snapshot()
		f.Add(trace.AppendBinary(nil, tr))
		if arg != 1 {
			continue
		}
		for i := range tr.Events {
			if p := tr.Events[i].Prog; tr.Events[i].IsProgram() && (p == monitor.ProgBoundBegin || p == monitor.ProgBoundEnd) {
				tr.Events[i].Slot = 7
				f.Add(trace.AppendBinary(nil, tr))
				break
			}
		}
	}
	// The instrumented runs deliver their events pre-matched; a run through
	// the name-driven entry points records call, return, assign and site
	// events, which replay dispatches by name.
	rec := trace.NewRecorder(build.Autos, 0)
	m, err := monitor.New(monitor.Options{Handler: rec, Tap: rec}, build.Autos...)
	if err != nil {
		f.Fatal(err)
	}
	th := m.NewThread()
	th.Call("main", 1)
	th.Call("start_op", 1)
	th.Return("start_op", 0, 1)
	th.Return("security_check", 0, 1)
	th.Return("prepare", 0, 1)
	th.Call("ufs_readdir", 5)
	th.Call("ffs_read", 5)
	for _, a := range build.Autos {
		th.Site(a.Name, 1)
	}
	th.Return("ffs_read", 5, 5)
	th.Return("ufs_readdir", 5, 5)
	th.Assign("proc", "p_flag", 9, spec.OpAssign, 256)
	th.Return("end_op", 0, 1)
	th.Return("main", 0, 1)
	f.Add(trace.AppendBinary(nil, rec.Snapshot()))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		trace.ReplayOpts(tr, build.Autos, monitor.Options{})
		trace.ReplayOpts(tr, build.Autos, monitor.Options{Failure: core.FailStop, Overflow: core.EvictOldest})
		m, err := monitor.New(monitor.Options{BatchSize: 4}, build.Autos...)
		if err != nil {
			t.Fatal(err)
		}
		trace.Feed(tr, m)
		m.Drain()
	})
}

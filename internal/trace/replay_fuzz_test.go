package trace_test

import (
	"bytes"
	"slices"
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

// FuzzReplay drives mutated recorded traces into monitors the way
// tesla-trace replay does: through ReplayOpts with default options,
// through ReplayOpts failing stop with evict-oldest overflow, and through
// Feed on a batched monitor. Input from outside the process must come back
// as an error, never a panic.
//
// The fuzzer mutates structure, not bytes: most byte-level mutations of an
// encoded trace fail trace.Read and never reach a monitor. A fuzz input
// picks one of the seed traces (recorded runs, one of them with a bound
// event's slot out of range) and a list of edits, each of which sets one
// field of one event to a value from the seeds' own vocabulary (names,
// values) or a small range around it, or deletes, duplicates or moves an
// event. The edited trace is re-encoded and read back, so the monitors see
// only what trace.Read returns.
func FuzzReplay(f *testing.F) {
	build, err := toolchain.BuildProgram(map[string]string{"fuzz.c": fuzzReplaySrc}, true)
	if err != nil {
		f.Fatal(err)
	}
	var seeds []*trace.Trace
	for _, arg := range []int64{0, 1} {
		rec := trace.NewRecorder(build.Autos, 0)
		if _, _, err := build.Run("main", monitor.Options{Handler: rec, Tap: rec}, arg); err != nil {
			f.Fatal(err)
		}
		tr := rec.Snapshot()
		seeds = append(seeds, tr)
		if arg != 1 {
			continue
		}
		tr = &trace.Trace{FormatVersion: tr.FormatVersion, Automata: tr.Automata, Events: slices.Clone(tr.Events)}
		for i := range tr.Events {
			if p := tr.Events[i].Prog; tr.Events[i].IsProgram() && (p == monitor.ProgBoundBegin || p == monitor.ProgBoundEnd) {
				tr.Events[i].Slot = 7
				seeds = append(seeds, tr)
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
	seeds = append(seeds, rec.Snapshot())

	v := newReplayVocab(seeds)
	for i := range seeds {
		f.Add(uint8(i), []byte{})
	}
	f.Add(uint8(0), []byte{3, 10, 1, 5, 0, 4, 7, 12, 0})
	f.Add(uint8(3), []byte{2, 8, 37, 6, 13, 0, 9, 14, 200, 1, 1, 3})

	f.Fuzz(func(t *testing.T, pick uint8, edits []byte) {
		edited := v.mutate(seeds[int(pick)%len(seeds)], edits)
		tr, err := trace.Read(bytes.NewReader(trace.AppendBinary(nil, edited)))
		if err != nil {
			t.Fatalf("an edited trace does not read back: %v", err)
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

// replayVocab is what FuzzReplay's edits draw from: every name and value
// the seed traces carry (automaton names included), plus a name and values
// none of them does.
type replayVocab struct {
	names []string
	vals  []core.Value
}

func newReplayVocab(seeds []*trace.Trace) *replayVocab {
	names := map[string]bool{"": true, "nosuch": true}
	vals := map[core.Value]bool{-1: true, 0: true, 1 << 40: true}
	for _, tr := range seeds {
		for _, name := range tr.Automata {
			names[name] = true
		}
		for _, ev := range tr.Events {
			names[ev.Fn], names[ev.Field] = true, true
			vals[ev.Ret] = true
			for _, x := range ev.Vals {
				vals[x] = true
			}
		}
	}
	v := &replayVocab{}
	for name := range names {
		v.names = append(v.names, name)
	}
	for x := range vals {
		v.vals = append(v.vals, x)
	}
	slices.Sort(v.names) // a fuzz input must mean the same edits every run
	slices.Sort(v.vals)
	return v
}

// mutate applies edits to a copy of seed, three bytes per edit: the event
// (by index), what to change and the value to change it by.
func (v *replayVocab) mutate(seed *trace.Trace, edits []byte) *trace.Trace {
	evs := slices.Clone(seed.Events)
	for ; len(edits) >= 3 && len(evs) > 0; edits = edits[3:] {
		i, what, b := int(edits[0])%len(evs), edits[1], edits[2]
		ev := &evs[i]
		name, val := v.names[int(b)%len(v.names)], v.vals[int(b)%len(v.vals)]
		switch what % 15 {
		case 0:
			ev.Prog = monitor.ProgKind(b % 10) // one past ProgDeliver
		case 1:
			ev.Fn = name
		case 2:
			ev.Field = name
		case 3:
			ev.Op = spec.AssignOp(b % 5)
		case 4:
			ev.Auto = int(b%8) - 1
		case 5:
			ev.Sym = int(b%16) - 1
		case 6:
			ev.Slot = int(b%8) - 1
		case 7:
			ev.HasRet, ev.Ret = b&1 != 0, v.vals[int(b/2)%len(v.vals)]
		case 8: // set one value, or append one past the end
			j := int(b / 64)
			ev.Vals = slices.Clone(ev.Vals)
			if j < len(ev.Vals) {
				ev.Vals[j] = val
			} else {
				ev.Vals = append(ev.Vals, val)
			}
		case 9: // drop the values from one on
			ev.Vals = slices.Clone(ev.Vals[:min(int(b%4), len(ev.Vals))])
		case 10:
			if b%4 == 0 {
				ev.InStack = nil
			} else {
				ev.InStack = append(slices.Clone(ev.InStack), int(b%8)-1)
			}
		case 11:
			ev.Thread = int(b % 4)
		case 12:
			evs = slices.Delete(evs, i, i+1)
		case 13:
			evs = slices.Insert(evs, i, *ev)
		case 14: // move the event to another position
			e := *ev
			evs = slices.Delete(evs, i, i+1)
			evs = slices.Insert(evs, int(b)%(len(evs)+1), e)
		}
	}
	return &trace.Trace{FormatVersion: seed.FormatVersion, Automata: seed.Automata, Events: evs}
}

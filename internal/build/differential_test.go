package build_test

// Differential tests: the build graph must be a perfect drop-in for the
// sequential reference pipeline. For every program in the corpus, the
// graph-built manifest, automata and linked module must be byte-identical
// to toolchain.BuildSequential's, at every worker count, with and without
// an on-disk cache, cold and warm.

import (
	"bytes"
	"os"
	"testing"

	"tesla/internal/bench"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
)

func monitorOptions() monitor.Options { return monitor.Options{} }

// corpus returns the csub programs the differential tests sweep: the
// paper-shaped single- and multi-file programs from the toolchain tests,
// the synthetic OpenSSL codebase from the figure 10 experiment, and the
// on-disk example programs.
func corpus(t *testing.T) map[string]map[string]string {
	t.Helper()
	c := map[string]map[string]string{
		"fig4":      {"uipc_socket.c": progFig4},
		"fieldflag": {"proc.c": progFieldAssign},
		"bounds":    {"cb.c": progCustomBounds},
		"openssl":   bench.OpenSSLCodebase(6, 4),
		"crossmodule": {
			"libcrypto.c": `
int EVP_VerifyFinal(int ctx, int sig, int siglen, int key) {
	if (sig == 42) { return 1; }
	return 0;
}
`,
			"client.c": `
int fetch(int sig) {
	int ok = EVP_VerifyFinal(1, sig, 8, 2);
	TESLA_WITHIN(main, previously(
		EVP_VerifyFinal(ANY(ptr), ANY(ptr), ANY(int), ANY(ptr)) == 1));
	return ok;
}
int main(int sig) { return fetch(sig); }
`,
		},
	}
	for name, path := range map[string]string{
		"safe":   "../../examples/staticcheck/testdata/safe.c",
		"doomed": "../../examples/trace/testdata/doomed.c",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus %s: %v", name, err)
		}
		c[name] = map[string]string{name + ".c": string(src)}
	}
	return c
}

const progFig4 = `
struct ucred { int uid; };
struct protosw { int (*pru_sopoll)(struct socket *, struct ucred *); };
struct socket { struct protosw *so_proto; int so_state; };

int mac_socket_check_poll(struct ucred *cred, struct socket *so) {
	return 0;
}

int sopoll_generic(struct socket *so, struct ucred *active_cred) {
	TESLA_SYSCALL_PREVIOUSLY(mac_socket_check_poll(ANY(ptr), so) == 0);
	return 7;
}

int sopoll(struct socket *so, struct ucred *cred) {
	return so->so_proto->pru_sopoll(so, cred);
}

int soo_poll(struct socket *so, struct ucred *active_cred, int check) {
	if (check) {
		int error = mac_socket_check_poll(active_cred, so);
		if (error != 0) { return error; }
	}
	return sopoll(so, active_cred);
}

int amd64_syscall(struct socket *so, struct ucred *cred, int check) {
	return soo_poll(so, cred, check);
}

int main(int do_check) {
	struct protosw *p = alloc(protosw);
	p->pru_sopoll = sopoll_generic;
	struct socket *so = alloc(socket);
	so->so_proto = p;
	struct ucred *cred = alloc(ucred);
	cred->uid = 1001;
	return amd64_syscall(so, cred, do_check);
}
`

const progFieldAssign = `
#define P_SUGID 256
struct proc { int p_flag; int p_uid; };

int setuid(struct proc *p, int uid) {
	TESLA_SYSCALL(eventually(p.p_flag = P_SUGID));
	p->p_uid = uid;
	if (uid != 0) {
		p->p_flag = P_SUGID;
	}
	return 0;
}

int amd64_syscall(struct proc *p, int uid) {
	return setuid(p, uid);
}

int main(int uid) {
	struct proc *p = alloc(proc);
	return amd64_syscall(p, uid);
}
`

const progCustomBounds = `
int begin_tx(int id) { return id; }
int end_tx(int id) { return 0; }
int log_write(int id) { return 0; }
int commit(int id, int doLog) {
	TESLA_ASSERT(perthread, call(begin_tx), returnfrom(end_tx),
		previously(log_write(id) == 0));
	return 0;
}
int main(int doLog) {
	int t = begin_tx(1);
	if (doLog) {
		int l = log_write(1);
	}
	int c = commit(1, doLog);
	return end_tx(1);
}
`

// manifestBytes renders a manifest for byte comparison.
func manifestBytes(t *testing.T, b *toolchain.Build) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Manifest.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertIdentical asserts two builds produced byte-identical outputs.
func assertIdentical(t *testing.T, want, got *toolchain.Build, label string) {
	t.Helper()
	if w, g := manifestBytes(t, want), manifestBytes(t, got); !bytes.Equal(w, g) {
		t.Errorf("%s: combined manifests differ:\n--- sequential\n%s\n--- graph\n%s", label, w, g)
	}
	if len(want.Autos) != len(got.Autos) {
		t.Fatalf("%s: automata count %d != %d", label, len(want.Autos), len(got.Autos))
	}
	for i := range want.Autos {
		if w, g := want.Autos[i].Dot(nil), got.Autos[i].Dot(nil); w != g {
			t.Errorf("%s: automaton %d differs:\n--- sequential\n%s\n--- graph\n%s", label, i, w, g)
		}
	}
	if w, g := want.Program.String(), got.Program.String(); w != g {
		t.Errorf("%s: linked programs differ:\n--- sequential\n%s\n--- graph\n%s", label, w, g)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats %+v != %+v", label, want.Stats, got.Stats)
	}
}

func TestGraphMatchesSequential(t *testing.T) {
	for name, sources := range corpus(t) {
		for _, instrument := range []bool{true, false} {
			opts := toolchain.BuildOptions{Instrument: instrument}
			seq, err := toolchain.BuildSequential(sources, opts)
			if err != nil {
				t.Fatalf("%s: sequential: %v", name, err)
			}
			for _, jobs := range []int{1, 4} {
				opts.Jobs = jobs
				graph, err := toolchain.BuildProgramOpts(sources, opts)
				if err != nil {
					t.Fatalf("%s -j%d: graph: %v", name, jobs, err)
				}
				assertIdentical(t, seq, graph,
					name+map[bool]string{true: "/tesla", false: "/default"}[instrument])
			}
		}
	}
}

// TestGraphMatchesSequentialChecked covers the Check and Elide stages: the
// checker's verdicts and the (possibly elided) instrumentation must match.
func TestGraphMatchesSequentialChecked(t *testing.T) {
	for name, sources := range corpus(t) {
		opts := toolchain.BuildOptions{Instrument: true, Check: true, Elide: true}
		seq, err := toolchain.BuildSequential(sources, opts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		graph, err := toolchain.BuildProgramOpts(sources, opts)
		if err != nil {
			t.Fatalf("%s: graph: %v", name, err)
		}
		assertIdentical(t, seq, graph, name+"/checked")
		ws, wf, wr := seq.Report.Counts()
		gs, gf, gr := graph.Report.Counts()
		if ws != gs || wf != gf || wr != gr {
			t.Errorf("%s: verdict counts (%d,%d,%d) != (%d,%d,%d)", name, ws, wf, wr, gs, gf, gr)
		}
	}
}

// TestGraphWarmMatchesCold: artifacts decoded from a disk cache must
// reproduce the cold build byte for byte.
func TestGraphWarmMatchesCold(t *testing.T) {
	for name, sources := range corpus(t) {
		dir := t.TempDir()
		opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
		cold, err := toolchain.BuildProgramOpts(sources, opts)
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		// A fresh process is simulated by a fresh Cache over the same dir.
		warm, err := toolchain.BuildProgramOpts(sources, opts)
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		assertIdentical(t, cold, warm, name+"/warm")
		if !warm.Graph.AllCached() {
			t.Errorf("%s: warm build did work: %s", name, warm.Graph.Summary())
		}
	}
}

// TestGraphRunsLikeSequential executes the sequential build, a cold graph
// build and a warm graph build served from the cold build's disk cache, and
// compares program results and violation counts — instrumentation or
// lowering differences would show as verdict divergence.
func TestGraphRunsLikeSequential(t *testing.T) {
	sources := map[string]string{"uipc_socket.c": progFig4}
	seq, err := toolchain.BuildSequential(sources, toolchain.BuildOptions{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := toolchain.BuildOptions{Instrument: true, CacheDir: dir}
	cold, err := toolchain.BuildProgramOpts(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh Cache over the cold build's directory: every automaton the
	// warm build hands the monitor was decoded from disk, not lowered by
	// the cold build.
	warm, err := toolchain.BuildProgramOpts(sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Graph.AllCached() || warm.Graph.Counts().DiskHits == 0 {
		t.Fatalf("warm build not served from disk: %s", warm.Graph.Summary())
	}
	for _, arg := range []int64{0, 1} {
		r1, v1 := runCounting(t, seq, arg)
		if want := map[int64]int{0: 1, 1: 0}[arg]; v1 != want {
			t.Fatalf("arg %d: sequential build reported %d violations, want %d", arg, v1, want)
		}
		for name, b := range map[string]*toolchain.Build{"cold graph": cold, "warm graph": warm} {
			r2, v2 := runCounting(t, b, arg)
			if r1 != r2 || v1 != v2 {
				t.Fatalf("arg %d: sequential (ret %d, %d violations) != %s (ret %d, %d violations)",
					arg, r1, v1, name, r2, v2)
			}
		}
	}
}

// runCounting runs main(arg) under a counting handler and returns the
// result and the number of violations reported.
func runCounting(t *testing.T, b *toolchain.Build, arg int64) (int64, int) {
	t.Helper()
	h := core.NewCountingHandler()
	opts := monitorOptions()
	opts.Handler = h
	ret, _, err := b.Run("main", opts, arg)
	if err != nil {
		t.Fatal(err)
	}
	return ret, len(h.Violations())
}

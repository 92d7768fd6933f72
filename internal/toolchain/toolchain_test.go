package toolchain

import (
	"strings"
	"testing"

	"tesla/internal/core"
	"tesla/internal/manifest"
	"tesla/internal/monitor"
)

// progFig4 is a miniature of the paper's figures 3/4: a socket poll path
// where protocol-agnostic code performs the MAC check and protocol-specific
// code asserts it happened — across an indirect call through a function
// pointer, as in the real kernel.
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

func TestPipelineFig4Good(t *testing.T) {
	b, err := BuildProgram(map[string]string{"uipc_socket.c": progFig4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Autos) != 1 {
		t.Fatalf("automata = %d", len(b.Autos))
	}
	if b.Stats.Sites != 1 || b.Stats.Translators == 0 || b.Stats.Hooks == 0 {
		t.Fatalf("stats = %+v", b.Stats)
	}

	h := core.NewCountingHandler()
	ret, _, err := b.Run("main", monitor.Options{Handler: h}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Both the bound (∗) instance (bypass) and the (so) clone accept.
	if h.Accepts("uipc_socket.c:11") == 0 {
		t.Fatalf("assertion did not accept: %v", h.Edges())
	}
}

func TestPipelineFig4BugDetected(t *testing.T) {
	b, err := BuildProgram(map[string]string{"uipc_socket.c": progFig4}, true)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	// do_check = 0: the kqueue-style path that skips the MAC check.
	ret, _, err := b.Run("main", monitor.Options{Handler: h}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
	vs := h.Violations()
	if len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Fatalf("missing-check violation not detected: %v", vs)
	}
}

func TestPipelineFailStop(t *testing.T) {
	b, err := BuildProgram(map[string]string{"uipc_socket.c": progFig4}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Fail-stop is TESLA's default: the violation aborts execution.
	_, _, err = b.Run("main", monitor.Options{Failure: core.FailStop}, 0)
	if err == nil {
		t.Fatal("fail-stop run should abort")
	}
	if !strings.Contains(err.Error(), "mac_socket_check_poll") {
		t.Fatalf("error should cite the assertion: %v", err)
	}
}

func TestPipelineUninstrumented(t *testing.T) {
	b, err := BuildProgram(map[string]string{"uipc_socket.c": progFig4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Autos) != 0 {
		t.Fatal("uninstrumented build must carry no automata")
	}
	// The manifest is still produced by analysis.
	if len(b.Manifest.Assertions) != 1 {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	ret, _, err := b.Run("main", monitor.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
}

// TestInstrumentedSameResult: instrumentation must not change program
// semantics, only observe them.
func TestInstrumentedSameResult(t *testing.T) {
	src := map[string]string{"prog.c": `
int work(int n) {
	int acc = 0;
	int i = 0;
	while (i < n) {
		acc = acc + i * i % 7;
		if (acc > 100) { acc = acc - 50; }
		i++;
	}
	TESLA_WITHIN(main, previously(work(ANY(int))));
	return acc;
}
int main(int n) { return work(n); }
`}
	inst, err := BuildProgram(src, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildProgram(src, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, 5, 40, 137} {
		r1, _, err := inst.Run("main", monitor.Options{}, n)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := plain.Run("main", monitor.Options{}, n)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("n=%d: instrumented %d != plain %d", n, r1, r2)
		}
	}
}

// TestCrossModuleAssertion mirrors §5.1: an assertion in one file references
// an event (function) defined in another file.
func TestCrossModuleAssertion(t *testing.T) {
	sources := map[string]string{
		"libcrypto.c": `
int EVP_VerifyFinal(int ctx, int sig, int siglen, int key) {
	if (sig == 42) { return 1; }
	if (sig == 13) { return -1; }
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
	}
	b, err := BuildProgram(sources, true)
	if err != nil {
		t.Fatal(err)
	}

	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 42); err != nil {
		t.Fatal(err)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("valid signature flagged: %v", vs)
	}

	// Forged signature: EVP_VerifyFinal returns -1, conflated with
	// success by the `ok != 0` style bug — TESLA catches it.
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 13); err != nil {
		t.Fatal(err)
	}
	if vs := h2.Violations(); len(vs) != 1 {
		t.Fatalf("forged signature not detected: %v", vs)
	}
}

// TestFieldAssignPipeline drives a field-assignment automaton end to end.
func TestFieldAssignPipeline(t *testing.T) {
	src := map[string]string{"proc.c": `
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
`}
	b, err := BuildProgram(src, true)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 1001); err != nil {
		t.Fatal(err)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("good path: %v", vs)
	}
	// uid==0 skips the flag assignment: the eventually obligation fails
	// at syscall exit.
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 0); err != nil {
		t.Fatal(err)
	}
	vs := h2.Violations()
	if len(vs) != 1 || vs[0].Kind != core.VerdictIncomplete {
		t.Fatalf("missing P_SUGID not detected: %v", vs)
	}
}

// TestCallerSideInstrumentation forces caller-side hooks and checks they
// observe a function with no body in the program (a "library" call).
func TestCallerSideInstrumentation(t *testing.T) {
	src := map[string]string{
		"lib.c": `
int lib_op(int x) { return x + 1; }
`,
		"app.c": `
int run(int x) {
	int r = lib_op(x);
	TESLA_WITHIN(main, previously(caller(lib_op(ANY(int)) == 8)));
	return r;
}
int main(int x) { return run(x); }
`,
	}
	b, err := BuildProgram(src, true)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 7); err != nil {
		t.Fatal(err)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("caller-side hooks missed the event: %v", vs)
	}
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 1); err != nil {
		t.Fatal(err)
	}
	if vs := h2.Violations(); len(vs) != 1 {
		t.Fatalf("wrong return value not detected: %v", vs)
	}
}

// TestIncallstackPipeline exercises the fig. 7 OR-of-paths pattern through
// the compiled toolchain, including the VM-backed call-stack query.
func TestIncallstackPipeline(t *testing.T) {
	src := map[string]string{"ufs.c": `
int mac_vnode_check_read(int cred, int vp) { return 0; }

int ffs_read(int vp, int checked) {
	TESLA_SYSCALL(incallstack(ufs_readdir)
		|| previously(mac_vnode_check_read(ANY(ptr), vp) == 0));
	return vp;
}

int ufs_readdir(int vp) {
	return ffs_read(vp, 0);
}

int amd64_syscall(int vp, int path) {
	if (path == 0) {
		int c = mac_vnode_check_read(1, vp);
		return ffs_read(vp, 1);
	}
	if (path == 1) {
		return ufs_readdir(vp);
	}
	return ffs_read(vp, 0);
}

int main(int path) {
	return amd64_syscall(55, path);
}
`}
	b, err := BuildProgram(src, true)
	if err != nil {
		t.Fatal(err)
	}
	for path, wantViolations := range map[int64]int{0: 0, 1: 0, 2: 1} {
		h := core.NewCountingHandler()
		if _, _, err := b.Run("main", monitor.Options{Handler: h}, path); err != nil {
			t.Fatal(err)
		}
		if vs := h.Violations(); len(vs) != wantViolations {
			t.Errorf("path %d: violations = %v, want %d", path, vs, wantViolations)
		}
	}
}

// TestManifestRoundTrip: the combined manifest survives encode/decode and
// recompiles to the same automata shapes.
func TestManifestRoundTrip(t *testing.T) {
	b, err := BuildProgram(map[string]string{"uipc_socket.c": progFig4}, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := b.Manifest.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := decodeManifest(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	autos2, err := m2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(autos2) != len(b.Autos) {
		t.Fatalf("automata count changed: %d vs %d", len(autos2), len(b.Autos))
	}
	for i := range autos2 {
		if autos2[i].States != b.Autos[i].States || len(autos2[i].Symbols) != len(b.Autos[i].Symbols) {
			t.Errorf("automaton %d shape changed", i)
		}
	}
}

func decodeManifest(s string) (*manifest.File, error) {
	return manifest.Decode(strings.NewReader(s))
}

// TestStrictAssertionPipeline: a strict() assertion compiled from csub
// rejects out-of-order events that conditional mode tolerates.
func TestStrictAssertionPipeline(t *testing.T) {
	build := func(modifier string) *Build {
		b, err := BuildProgram(map[string]string{"s.c": `
int step_a(int x) { return 0; }
int step_b(int x) { return 0; }
int run(int x, int order) {
	if (order) {
		int a = step_a(x);
		int b = step_b(x);
		TESLA_WITHIN(main, ` + modifier + `(previously(call(step_a), call(step_b))));
		return a + b;
	}
	int b = step_b(x);
	int a = step_a(x);
	TESLA_WITHIN(main, ` + modifier + `(previously(call(step_a), call(step_b))));
	return a + b;
}
int main(int order) { return run(5, order); }
`}, true)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Strict: b-then-a is a violation.
	strict := build("strict")
	h := core.NewCountingHandler()
	if _, _, err := strict.Run("main", monitor.Options{Handler: h}, 1); err != nil {
		t.Fatal(err)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("strict in-order flagged: %v", h.Violations())
	}
	h2 := core.NewCountingHandler()
	if _, _, err := strict.Run("main", monitor.Options{Handler: h2}, 0); err != nil {
		t.Fatal(err)
	}
	if len(h2.Violations()) == 0 {
		t.Fatal("strict out-of-order not flagged")
	}

	// Conditional tolerates the subsequence… but b,a alone has no a,b
	// subsequence, so it still fails at the site — via NoInstance rather
	// than strict's BadTransition.
	lax := build("conditional")
	h3 := core.NewCountingHandler()
	if _, _, err := lax.Run("main", monitor.Options{Handler: h3}, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range h3.Violations() {
		if v.Kind == core.VerdictBadTransition {
			t.Fatalf("conditional mode must not raise strict violations: %v", v)
		}
	}
}

// TestCustomBoundsPipeline: TESLA_ASSERT with explicit bounds spanning two
// different functions.
func TestCustomBoundsPipeline(t *testing.T) {
	b, err := BuildProgram(map[string]string{"cb.c": `
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
`}, true)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 1); err != nil {
		t.Fatal(err)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("logged commit flagged: %v", h.Violations())
	}
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 0); err != nil {
		t.Fatal(err)
	}
	if len(h2.Violations()) != 1 {
		t.Fatalf("unlogged commit not flagged: %v", h2.Violations())
	}
}

// TestMultipleAssertionsShareBound: several assertions bounded by the same
// function are tracked independently.
func TestMultipleAssertionsShareBound(t *testing.T) {
	b, err := BuildProgram(map[string]string{"mb.c": `
int chk1(int x) { return 0; }
int chk2(int x) { return 0; }
int stage1(int x) {
	TESLA_SYSCALL_PREVIOUSLY(chk1(x) == 0);
	return 0;
}
int stage2(int x) {
	TESLA_SYSCALL_PREVIOUSLY(chk2(x) == 0);
	return 0;
}
int amd64_syscall(int x, int skip2) {
	int a = chk1(x);
	int s1 = stage1(x);
	if (skip2 == 0) {
		int b = chk2(x);
	}
	return stage2(x);
}
int main(int skip2) { return amd64_syscall(3, skip2); }
`}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Autos) != 2 {
		t.Fatalf("automata = %d", len(b.Autos))
	}
	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 0); err != nil {
		t.Fatal(err)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("both checked: %v", h.Violations())
	}
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 1); err != nil {
		t.Fatal(err)
	}
	vs := h2.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Error(), "chk2") {
		t.Fatalf("only stage2 should fail: %v", vs)
	}
}

func TestBuildWithCheckAndElide(t *testing.T) {
	// progFig4 goes through a function pointer, so its assertion stays
	// NEEDS-RUNTIME: the checker must not elide anything, and the report
	// must say why.
	b, err := BuildProgramOpts(map[string]string{"fig4.c": progFig4}, BuildOptions{
		Instrument: true, Check: true, Elide: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Report == nil || len(b.Report.Results) != 1 {
		t.Fatalf("report = %+v", b.Report)
	}
	r := b.Report.Results[0]
	if r.Verdict.String() != "NEEDS-RUNTIME" {
		t.Fatalf("verdict = %s", r.Verdict)
	}
	if len(r.Reasons) == 0 || !strings.Contains(r.Reasons[0], "indirect call") {
		t.Fatalf("reasons = %v", r.Reasons)
	}
	if b.Stats.ElidedHooks != 0 || b.Stats.ElidedSites != 0 {
		t.Fatalf("unproved assertion elided: %+v", b.Stats)
	}
	// The instrumentation still works end to end.
	h := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h}, 1); err != nil {
		t.Fatal(err)
	}
	if len(h.Violations()) != 0 {
		t.Fatalf("checked run flagged: %v", h.Violations())
	}
	h2 := core.NewCountingHandler()
	if _, _, err := b.Run("main", monitor.Options{Handler: h2}, 0); err != nil {
		t.Fatal(err)
	}
	if len(h2.Violations()) != 1 {
		t.Fatalf("unchecked run not flagged: %v", h2.Violations())
	}
}

func TestCheckOnlyBuild(t *testing.T) {
	// Check without Instrument: the program is stripped (no monitor, no
	// hooks) but the report is still produced.
	b, err := BuildProgramOpts(map[string]string{"fig4.c": progFig4}, BuildOptions{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Report == nil || len(b.Report.Results) != 1 {
		t.Fatalf("report = %+v", b.Report)
	}
	if len(b.Autos) != 0 {
		t.Fatalf("uninstrumented build kept autos: %d", len(b.Autos))
	}
	if ret, _, err := b.Run("main", monitor.Options{}, 0); err != nil || ret != 7 {
		t.Fatalf("stripped run = %d, %v", ret, err)
	}
}

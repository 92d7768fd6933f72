package kernel

import (
	"strings"
	"sync"
	"testing"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

func bootAll(t *testing.T, bugs BugConfig) (*Kernel, *core.CountingHandler) {
	t.Helper()
	h := core.NewCountingHandler()
	k, _, err := Boot(Release, SetAll, bugs, monitor.Options{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	return k, h
}

// TestTable1Counts pins the assertion-set sizes to table 1 of the paper.
func TestTable1Counts(t *testing.T) {
	counts := map[Set]int{
		SetMF:  25,
		SetMS:  11,
		SetMP:  10,
		SetM:   48,
		SetP:   37,
		SetAll: 96,
	}
	for set, want := range counts {
		if got := len(Assertions(set)); got != want {
			t.Errorf("%s: %d assertions, want %d", set, got, want)
		}
	}
}

func TestAllAssertionsCompile(t *testing.T) {
	autos, err := CompileAssertions(SetAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(autos) != 96 {
		t.Fatalf("compiled %d automata", len(autos))
	}
}

// TestCleanKernelNoViolations: with no bugs injected, the full workload
// passes every assertion.
func TestCleanKernelNoViolations(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	ExerciseAll(th)
	OpenClose(th, 50)
	if p, err := SetupOLTP(th); err == nil {
		for i := 0; i < 20; i++ {
			OLTPTransaction(th, p)
		}
	}
	for i := 0; i < 20; i++ {
		BuildStep(th, i)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("clean kernel produced violations:\n%v", vs)
	}
}

// TestKqueueBugDetected reproduces the first §3.5.2 finding:
// mac_socket_check_poll is invoked for select and poll, but not kqueue.
func TestKqueueBugDetected(t *testing.T) {
	k, h := bootAll(t, BugConfig{KqueueMissingPollCheck: true})
	th := k.NewThread()
	p, err := SetupOLTP(th)
	if err != nil {
		t.Fatal(err)
	}

	th.Poll(p.Client)
	th.Select(p.Client)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("poll/select flagged spuriously: %v", vs)
	}

	th.Kevent(p.Client)
	vs := h.Violations()
	if len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Fatalf("kqueue bug not detected: %v", vs)
	}
	if !strings.Contains(vs[0].Class.Name, "sopoll_generic") {
		t.Fatalf("wrong assertion fired: %v", vs[0])
	}
}

// TestWrongCredentialBugDetected reproduces the second, subtler finding:
// one dynamic call graph passes the cached file credential instead of the
// active credential.
func TestWrongCredentialBugDetected(t *testing.T) {
	k, h := bootAll(t, BugConfig{WrongCredential: true})
	th := k.NewThread()
	p, err := SetupOLTP(th)
	if err != nil {
		t.Fatal(err)
	}

	// poll(2) uses the right credential even with the bug armed.
	th.Poll(p.Client)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("poll flagged: %v", vs)
	}

	// The bug only bites when the active credential differs from the one
	// cached in the file at open time: change credentials, then select.
	th.Setuid(1001)
	th.Select(p.Client)
	vs := h.Violations()
	if len(vs) != 1 || vs[0].Kind != core.VerdictNoInstance {
		t.Fatalf("wrong-credential bug not detected: %v", vs)
	}
	if !strings.Contains(vs[0].Class.Name, "sopoll_generic") {
		t.Fatalf("wrong assertion: %v", vs[0])
	}

	// Sanity: without the bug, the same sequence is clean.
	k2, h2 := bootAll(t, BugConfig{})
	th2 := k2.NewThread()
	p2, _ := SetupOLTP(th2)
	th2.Setuid(1001)
	th2.Select(p2.Client)
	if vs := h2.Violations(); len(vs) != 0 {
		t.Fatalf("fixed kernel flagged: %v", vs)
	}
}

// TestMissingSUGIDDetected reproduces the eventually-style security
// property: credential changes must set P_SUGID before the syscall ends.
func TestMissingSUGIDDetected(t *testing.T) {
	k, h := bootAll(t, BugConfig{MissingSUGID: true})
	th := k.NewThread()
	th.Setuid(1001)
	vs := h.Violations()
	if len(vs) == 0 {
		t.Fatal("missing P_SUGID not detected")
	}
	found := false
	for _, v := range vs {
		if v.Kind == core.VerdictIncomplete && strings.Contains(v.Class.Name, "sugid") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong violations: %v", vs)
	}
}

// TestCoverageReproduction: the kernel test suite leaves exactly 26 of the
// 37 P assertions unexercised — 19 procfs, 2 CPUSET, 5 POSIX real-time.
func TestCoverageReproduction(t *testing.T) {
	h := core.NewCountingHandler()
	autos, err := CompileAssertions(SetP)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(monitor.Options{Handler: h}, autos...)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Monitor: mon})
	th := k.NewThread()
	ExerciseAll(th)

	missed := Unexercised(h, autos)
	if len(missed) != 26 {
		t.Fatalf("unexercised = %d (%v), want 26", len(missed), missed)
	}
	var procfs, cpuset, rt int
	for _, name := range missed {
		switch {
		case strings.HasPrefix(name, "P:procfs"):
			procfs++
		case strings.HasPrefix(name, "P:cpuset"):
			cpuset++
		case strings.HasPrefix(name, "P:rtprio"):
			rt++
		}
	}
	if procfs != 19 || cpuset != 2 || rt != 5 {
		t.Fatalf("breakdown procfs=%d cpuset=%d rt=%d", procfs, cpuset, rt)
	}

	// Exercising the missing facilities closes the gap.
	for op := 0; op < ProcfsOps; op++ {
		th.Procfs(op, th.Proc())
	}
	th.CpusetGet(th.Proc())
	th.CpusetSet(th.Proc())
	for op := 0; op < RtprioOps; op++ {
		th.Rtprio(op, th.Proc())
	}
	if missed := Unexercised(h, autos); len(missed) != 0 {
		t.Fatalf("still unexercised after full drive: %v", missed)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("violations while closing coverage: %v", vs)
	}
}

// TestPageFaultPath: the trap_pfault bound works outside any system call.
func TestPageFaultPath(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	fd := th.Open("/mapped")
	th.Close(fd)
	th.PageFault("/mapped")
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("page-fault path: %v", vs)
	}
}

// TestACLInternalPath: reading an ACL goes through extattr and vn_rdwr with
// IO_NOMACCHECK — no mac_vnode_check_read expected (fig. 7 semantics).
func TestACLInternalPath(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	fd := th.Open("/file")
	th.Close(fd)
	if ret := th.AclGet("/file"); ret != 0 {
		t.Fatalf("aclget = %d", ret)
	}
	if ret := th.AclSet("/file"); ret != 0 {
		t.Fatalf("aclset = %d", ret)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("ACL internal path flagged: %v", vs)
	}
}

// TestReaddirInternalRead: ffs_read reached from ufs_readdir is exempt via
// incallstack.
func TestReaddirInternalRead(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	if ret := th.Readdir("/"); ret != 0 {
		t.Fatalf("readdir = %d", ret)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("readdir internal read flagged: %v", vs)
	}
}

// TestExecAndKldloadPaths: the three open-like authorisations all satisfy
// the fig. 7 ufs_open assertion.
func TestExecAndKldloadPaths(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	fd := th.Open("/bin/sh")
	th.Close(fd)
	th.Exec("/bin/sh")
	th.Kldload("/bin/sh")
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("open-like paths flagged: %v", vs)
	}
}

// TestSetuidExecSetsSUGID: executing a setuid image changes credentials and
// must also set P_SUGID.
func TestSetuidExecSetsSUGID(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	fd := th.Open("/bin/su")
	th.Close(fd)
	th.Chmod("/bin/su", 0o4755)
	th.Exec("/bin/su")
	if th.Proc().Flag&P_SUGID == 0 {
		t.Fatal("P_SUGID not set after setuid exec")
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("setuid exec flagged: %v", vs)
	}
}

// TestReleaseKernelFast: without a monitor, the instrumentation shims do
// nothing and no state accumulates.
func TestReleaseKernelFast(t *testing.T) {
	k := New(Config{Mode: Release})
	th := k.NewThread()
	ExerciseAll(th)
	OpenClose(th, 100)
	if k.SyscallCount == 0 {
		t.Fatal("no syscalls dispatched")
	}
	if th.MonitorThread() != nil {
		t.Fatal("release build has a monitor thread")
	}
}

// TestDebugModeChecks: WITNESS and INVARIANTS actually run in Debug mode.
func TestDebugModeChecks(t *testing.T) {
	k := New(Config{Mode: Debug})
	th := k.NewThread()
	ExerciseAll(th)

	// INVARIANTS catches credential over-release.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("INVARIANTS did not catch over-release")
			}
		}()
		c := &Ucred{refs: 0}
		th.crfree(c)
	}()

	// WITNESS catches a lock-order reversal.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WITNESS did not catch reversal")
			}
		}()
		th.lock("a")
		th.lock("b")
		th.unlock("b")
		th.unlock("a")
		th.lock("b")
		th.lock("a") // reversal: a was held before b earlier
	}()
}

// TestSetStrings covers the Set stringer.
func TestSetStrings(t *testing.T) {
	for set, want := range map[Set]string{
		SetMF: "MF", SetMS: "MS", SetMP: "MP",
		SetM: "M", SetP: "P", SetAll: "All", Set(0): "none",
	} {
		if got := set.String(); got != want {
			t.Errorf("%d: %q != %q", set, got, want)
		}
	}
}

// TestSyscallErrors: descriptor misuse returns errors, no panics, and no
// assertion noise.
func TestSyscallErrors(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	if ret := th.Close(99); ret != -EBADF {
		t.Errorf("close(99) = %d", ret)
	}
	if ret := th.Read(5, 10); ret != -EBADF {
		t.Errorf("read(5) = %d", ret)
	}
	if ret := th.Readdir("/nope"); ret != -ENOENT {
		t.Errorf("readdir(/nope) = %d", ret)
	}
	if ret := th.Procfs(99, th.Proc()); ret != -EINVAL {
		t.Errorf("procfs(99) = %d", ret)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("error paths flagged: %v", vs)
	}
}

// TestMACPolicyDenial: a low-integrity subject is denied and no assertion
// fires for the denied operation.
func TestMACPolicyDenial(t *testing.T) {
	k, h := bootAll(t, BugConfig{})
	th := k.NewThread()
	fd := th.Open("/secret")
	th.Close(fd)
	// Raise the object's label above the subject's.
	vp := k.fs.nodes["/secret"]
	vp.Label = 99
	if ret := th.Open("/secret"); ret != -EACCES {
		t.Fatalf("open should be denied: %d", ret)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("denied open flagged: %v", vs)
	}
}

// TestEveryAssertionExercisable: driving every kernel facility (including
// the deprecated ones) fires the site of all 96 assertions — guarding
// against site-name mismatches between the corpus and the kernel code.
func TestEveryAssertionExercisable(t *testing.T) {
	h := core.NewCountingHandler()
	autos, err := CompileAssertions(SetAll)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(monitor.Options{Handler: h}, autos...)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Monitor: mon})
	th := k.NewThread()
	ExerciseAll(th)
	for op := 0; op < ProcfsOps; op++ {
		th.Procfs(op, th.Proc())
	}
	th.CpusetGet(th.Proc())
	th.CpusetSet(th.Proc())
	for op := 0; op < RtprioOps; op++ {
		th.Rtprio(op, th.Proc())
	}

	missed := Unexercised(h, autos)
	// The Infrastructure test assertions intentionally reference events
	// that never fire; everything else must have been exercised.
	var unexpected []string
	for _, name := range missed {
		if !strings.HasPrefix(name, "Infra:") {
			unexpected = append(unexpected, name)
		}
	}
	if len(unexpected) != 0 {
		t.Fatalf("assertions with unreachable sites: %v", unexpected)
	}
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("full drive produced violations: %v", vs)
	}
}

// TestGlobalAssertionAcrossKernelThreads: a cross-thread security property
// in the global context — one thread performs the authorisation, another
// reaches the site within the same global bound.
func TestGlobalAssertionAcrossKernelThreads(t *testing.T) {
	a := spec.Assert("global-audit", spec.Global,
		spec.Bound{
			Begin: spec.StaticEvent{Kind: spec.StaticCall, Fn: "audit_begin"},
			End:   spec.StaticEvent{Kind: spec.StaticReturn, Fn: "audit_commit"},
		},
		spec.Previously(spec.Call("mac_socket_check_poll", spec.AnyPtr(), spec.Var("so")).ReturnsInt(0)))
	auto, err := automata.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewCountingHandler()
	mon, err := monitor.New(monitor.Options{Handler: h}, auto)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Monitor: mon})
	t1 := k.NewThread()
	t2 := k.NewThread()
	pair, err := SetupOLTP(t1)
	if err != nil {
		t.Fatal(err)
	}
	so := t1.fd(pair.Client).Socket

	// Thread 2 opens the audit window; thread 1 polls (performing the MAC
	// check); thread 2 reaches the site and commits.
	t2.MonitorThread().Call("audit_begin")
	t1.Poll(pair.Client)
	t2.MonitorThread().Site("global-audit", so.ID)
	t2.MonitorThread().Return("audit_commit", 0)
	if vs := h.Violations(); len(vs) != 0 {
		t.Fatalf("cross-thread property failed: %v", vs)
	}

	// Without the poll, the site has no instance to match.
	t2.MonitorThread().Call("audit_begin")
	t2.MonitorThread().Site("global-audit", so.ID)
	t2.MonitorThread().Return("audit_commit", 0)
	if vs := h.Violations(); len(vs) != 1 {
		t.Fatalf("missing cross-thread check not detected: %v", vs)
	}
}

// TestWorkloadsRunConcurrently drives the OLTP and build workloads on two
// booted kernels from two goroutines at once. Under -race it pins that the
// workloads keep their compute results per thread, not in package state.
func TestWorkloadsRunConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		k, _, err := Boot(Release, SetAll, BugConfig{}, monitor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		th := k.NewThread()
		p, err := SetupOLTP(th)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				OLTPTransaction(th, p)
				BuildStep(th, i)
			}
		}()
	}
	wg.Wait()
}

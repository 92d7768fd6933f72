// Package kernel is a miniature FreeBSD-like kernel substrate: the
// evaluation target of the paper's §3.5.2/§5.2 case study. It implements
// the subsystems the TESLA kernel assertions talk about — system-call
// dispatch (AMD64Syscall), processes and credentials (including P_SUGID),
// a VFS with a UFS-style filesystem (vnode operation tables, vn_rdwr with
// IO_NOMACCHECK, readdir-internal reads), sockets behind the
// fileops → protosw → pr_usrreqs indirection chain of figure 3,
// poll/select/kqueue, a page-fault read path, and a Mandatory Access
// Control framework with hooks throughout.
//
// The kernel emits TESLA events through a monitor.Thread exactly where the
// instrumenter would place hooks in the real kernel; a nil monitor is the
// "Release" build. The §3.5.2 bugs are reproduced behind Bugs flags so the
// assertion corpus (assertions.go) can detect them.
package kernel

import (
	"fmt"
	"sync/atomic"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/spec"
)

// Mode selects the kernel build configuration benchmarked in §5.2.2.
type Mode int

const (
	// Release has no debugging aids and no instrumentation.
	Release Mode = iota
	// Debug enables the WITNESS-style lock-order checker and INVARIANTS
	// consistency checks accepted by the developer community.
	Debug
)

// BugConfig injects the §3.5.2 bugs.
type BugConfig struct {
	// KqueueMissingPollCheck: mac_socket_check_poll is invoked for the
	// select and poll system calls, but not kqueue.
	KqueueMissingPollCheck bool
	// WrongCredential: one dynamic call graph passes the cached file
	// credential down instead of the active (thread) credential, so
	// authorisation uses the credential that created the file or socket.
	WrongCredential bool
	// MissingSUGID: a process credential is modified without setting the
	// P_SUGID flag, enabling privilege escalation via debuggers.
	MissingSUGID bool
}

// Config configures a kernel instance.
type Config struct {
	Mode Mode
	Bugs BugConfig
	// Monitor, when non-nil, is the TESLA runtime the kernel's
	// instrumentation reports to. Build one from an assertion corpus via
	// assertions.go and monitor.New.
	Monitor *monitor.Monitor
}

// P_SUGID mirrors the FreeBSD process flag: set whenever process
// credentials change in a way debuggers must distrust.
const P_SUGID = 0x100

// IO_NOMACCHECK marks vn_rdwr I/O performed “internally” with MAC checks
// deliberately disabled (fig. 7).
const IO_NOMACCHECK = 0x80

// Errno values (negated FreeBSD style: 0 success, >0 error).
const (
	OK     = 0
	EPERM  = 1
	ENOENT = 2
	EBADF  = 9
	EACCES = 13
	EINVAL = 22
	EMFILE = 24
)

// Kernel is one simulated kernel instance.
type Kernel struct {
	cfg    Config
	nextID int64

	fs      *filesystem
	witness *witness

	// SyscallCount tallies dispatched system calls, for benchmarks.
	SyscallCount uint64
}

// New boots a kernel.
func New(cfg Config) *Kernel {
	k := &Kernel{cfg: cfg, nextID: 1}
	k.fs = newFilesystem(k)
	k.witness = newWitness()
	return k
}

func (k *Kernel) id() core.Value {
	return core.Value(atomic.AddInt64(&k.nextID, 1))
}

// Thread is one kernel thread: the unit of syscall execution and of
// TESLA's per-thread context.
type Thread struct {
	k    *Kernel
	mt   *monitor.Thread // nil in Release/Debug builds without TESLA
	proc *Proc

	// fds is the per-process descriptor table (simplified per-thread).
	fds []*File

	locks []string // WITNESS shadow stack (Debug mode)

	// sink keeps the workloads' user-space compute (OLTPTransaction,
	// BuildStep) from being eliminated as dead code. It is per thread so
	// threads of different kernels can run workloads concurrently.
	sink int64
}

// NewThread creates a thread belonging to a fresh process.
func (k *Kernel) NewThread() *Thread {
	t := &Thread{k: k, proc: k.newProc()}
	if k.cfg.Monitor != nil {
		t.mt = k.cfg.Monitor.NewThread()
	}
	return t
}

// Instrumentation shims: these are the hooks the TESLA instrumenter would
// insert. They compile to nearly nothing in Release builds.

func (t *Thread) enter(fn string, args ...core.Value) {
	if t.mt != nil {
		t.mt.Call(fn, args...)
	}
}

func (t *Thread) exit(fn string, ret core.Value, args ...core.Value) {
	if t.mt != nil {
		t.mt.Return(fn, ret, args...)
	}
}

func (t *Thread) site(name string, vals ...core.Value) {
	if t.mt != nil {
		t.mt.Site(name, vals...)
	}
}

func (t *Thread) assign(structName, field string, target core.Value, op spec.AssignOp, value core.Value) {
	if t.mt != nil {
		t.mt.Assign(structName, field, target, op, value)
	}
}

// debug reports whether WITNESS/INVARIANTS-style checking is on.
func (t *Thread) debug() bool { return t.k.cfg.Mode == Debug }

// invariant is an INVARIANTS-style consistency check: real work in Debug
// builds, free otherwise.
func (t *Thread) invariant(cond bool, what string) {
	if t.debug() && !cond {
		panic(fmt.Sprintf("kernel: INVARIANTS: %s", what))
	}
}

// lock/unlock drive the WITNESS lock-order checker in Debug mode.
func (t *Thread) lock(name string) {
	if t.debug() {
		t.k.witness.acquire(t, name)
	}
	t.locks = append(t.locks, name)
}

func (t *Thread) unlock(name string) {
	if n := len(t.locks); n > 0 && t.locks[n-1] == name {
		t.locks = t.locks[:n-1]
	}
	if t.debug() {
		t.k.witness.release(t, name)
	}
}

// witness is a WITNESS-style lock-order verifier: it records the global
// acquisition-order graph and checks new acquisitions against it — the
// kind of hand-crafted temporal checker §1 credits with FreeBSD rarely
// experiencing deadlocks, and the cost baseline the paper compares against.
type witness struct {
	// order[a][b] means a has been held while acquiring b.
	order map[string]map[string]bool
}

func newWitness() *witness {
	return &witness{order: map[string]map[string]bool{}}
}

func (w *witness) acquire(t *Thread, name string) {
	for _, held := range t.locks {
		if held == name {
			panic("kernel: WITNESS: recursive lock " + name)
		}
		// Record held-before relation; reversal is an order violation.
		if w.order[name] != nil && w.order[name][held] {
			panic(fmt.Sprintf("kernel: WITNESS: lock order reversal %s -> %s", held, name))
		}
		m := w.order[held]
		if m == nil {
			m = map[string]bool{}
			w.order[held] = m
		}
		m[name] = true
	}
}

func (w *witness) release(t *Thread, name string) {}

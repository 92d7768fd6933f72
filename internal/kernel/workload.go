package kernel

import (
	"fmt"

	"tesla/internal/automata"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// Boot builds a kernel in the given configuration, compiling the selected
// assertion sets and wiring a TESLA monitor when any are enabled. This is
// the benchmark entry point for the §5.2 kernel configurations: Release,
// Debug, Infrastructure (sets == SetInfra), and the table-1 assertion sets.
func Boot(mode Mode, sets Set, bugs BugConfig, opts monitor.Options) (*Kernel, *monitor.Monitor, error) {
	cfg := Config{Mode: mode, Bugs: bugs}
	var mon *monitor.Monitor
	if sets != 0 {
		autos, err := CompileAssertions(sets)
		if err != nil {
			return nil, nil, err
		}
		mon, err = monitor.New(opts, autos...)
		if err != nil {
			return nil, nil, err
		}
		cfg.Monitor = mon
	}
	return New(cfg), mon, nil
}

// OpenClose is the lmbench-style open/close microbenchmark of figure 11a:
// a tight loop of open and close system calls.
func OpenClose(t *Thread, iters int) {
	for i := 0; i < iters; i++ {
		fd := t.Open("/tmp/lat_fs")
		if fd >= 0 {
			t.Close(fd)
		}
	}
}

// OLTPPair is a connected client/server socket pair for the OLTP workload.
type OLTPPair struct {
	Client int64
	Server int64
}

// SetupOLTP creates the listening server and a connected client socket.
func SetupOLTP(t *Thread) (OLTPPair, error) {
	srv := t.Socket()
	if srv < 0 {
		return OLTPPair{}, fmt.Errorf("kernel: socket: %d", srv)
	}
	t.Bind(srv)
	t.Listen(srv)
	cli := t.Socket()
	if cli < 0 {
		return OLTPPair{}, fmt.Errorf("kernel: socket: %d", cli)
	}
	if ret := t.Connect(cli, srv); ret != 0 {
		return OLTPPair{}, fmt.Errorf("kernel: connect: %d", ret)
	}
	return OLTPPair{Client: cli, Server: srv}, nil
}

// OLTPTransaction is one SysBench-style transaction: a socket-intensive
// query/response exchange, query processing in user space (the database
// engine's share of the time), and a little table I/O (figure 11b's
// "socket intensive" macrobenchmark).
func OLTPTransaction(t *Thread, p OLTPPair) {
	t.Poll(p.Client)
	t.Send(p.Client, 128) // query
	// The DB engine evaluates the query: user-space work with no kernel
	// events, which is where macrobenchmarks spend most of their time —
	// the reason macro overhead stays modest while microbenchmarks are
	// "measurably slowed".
	var acc int64 = 1
	for i := 0; i < 24576; i++ {
		acc = acc*1103515245 + 12345
		acc ^= acc >> 16
	}
	t.sink = acc
	t.Recv(p.Client, 512)         // response rows
	t.Select(p.Client)            // wait for more
	t.Send(p.Client, 64)          // commit
	t.Recv(p.Client, 16)          // ack
	fd := t.Open("/db/table.ibd") // touch the (memory-backed) table
	if fd >= 0 {
		t.Read(fd, 4096)
		t.Close(fd)
	}
}

// BuildStep is one compiler-build step: open sources and headers, read
// them, burn some user CPU "compiling", write the object file (figure
// 11b's "FS/compute intensive" macrobenchmark — the Clang build).
func BuildStep(t *Thread, step int) int64 {
	src := fmt.Sprintf("/src/file%d.c", step%64)
	fd := t.Open(src)
	if fd < 0 {
		return fd
	}
	t.Read(fd, 8192)
	for h := 0; h < 4; h++ {
		hfd := t.Open(fmt.Sprintf("/src/hdr%d.h", (step+h)%16))
		if hfd >= 0 {
			t.Read(hfd, 2048)
			t.Close(hfd)
		}
	}
	// "Compute": user-mode work between system calls, no kernel events.
	var acc int64 = 1
	for i := 0; i < 65536; i++ {
		acc = acc*1103515245 + 12345
		acc ^= acc >> 16
	}
	t.sink = acc
	t.Close(fd)
	ofd := t.Open(fmt.Sprintf("/obj/file%d.o", step%64))
	if ofd >= 0 {
		t.Write(ofd, 4096)
		t.Close(ofd)
	}
	t.Stat(src)
	return acc
}

// ExerciseAll drives every code path the kernel test suite covers: all
// exercised assertion sites fire at least once. Deliberately absent:
// procfs, CPUSET and POSIX real-time scheduling, reproducing the §3.5.2
// coverage gap.
func ExerciseAll(t *Thread) {
	// Filesystem.
	fd := t.Open("/etc/passwd")
	t.Read(fd, 128)
	t.Write(fd, 64)
	t.Close(fd)
	t.Readdir("/")
	t.Stat("/etc/passwd")
	t.Chmod("/etc/passwd", 0o644)
	t.ExtattrGet("/etc/passwd", "user.tag")
	t.ExtattrSet("/etc/passwd", "user.tag")
	t.AclGet("/etc/passwd")
	t.AclSet("/etc/passwd")
	t.PageFault("/etc/passwd")
	t.Exec("/etc/passwd")
	t.Kldload("/etc/passwd")
	vfd := t.Open("/etc/passwd")
	t.Poll(vfd) // vnode-backed poll (MF:vn_poll)
	t.Close(vfd)

	// Sockets.
	if p, err := SetupOLTP(t); err == nil {
		t.Accept(p.Server)
		t.Send(p.Client, 10)
		t.Recv(p.Client, 10)
		t.Poll(p.Client)
		t.Select(p.Client)
		t.Kevent(p.Client)
		t.SockStat(p.Client)
		t.SockVisible(p.Client)
		t.SockRelabel(p.Client, 5)
		t.Close(p.Client)
		t.Close(p.Server)
	}

	// Processes.
	child, _ := t.Fork()
	t.SetPriority(child, 10)
	t.GetPriority(child)
	t.Kill(child, 15)
	t.Ptrace(child)
	t.ExitProc(child)
	t.Wait(child)
	t.Setuid(1001)
	t.Setgid(1001)
	t.GetAudit(child)
	t.SetAudit(child)
	t.SeeCred(child.Cred)
	t.KenvGet(1)
	t.KenvSet(2)
}

// Unexercised returns the names of assertions whose site event never fired
// during the run observed by h — TESLA as a coverage tool (§3.5.2: "of the
// 37 inter-process access-control assertions we wrote, 26 were not
// exercised by FreeBSD's inter-process access-control test suite").
func Unexercised(h *core.CountingHandler, autos []*automata.Automaton) []string {
	fired := map[string]bool{}
	for e, n := range h.Edges() {
		if n > 0 && e.Symbol == "«assertion»" {
			fired[e.Class] = true
		}
	}
	var out []string
	for _, a := range autos {
		if !fired[a.Name] {
			out = append(out, a.Name)
		}
	}
	return out
}

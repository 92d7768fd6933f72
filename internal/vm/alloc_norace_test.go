//go:build !race

package vm

import (
	"testing"

	"tesla/internal/build"
	"tesla/internal/core"
	"tesla/internal/monitor"
)

// TestRunAllocs pins a warmed VM.Run at zero allocations. Frames live on
// the VM's register stack, allocas reuse freed heap slots, every call was
// resolved by New, and intrinsic arguments go to the monitor in one reused
// buffer. The instrumented runs use no tap and a no-op handler, under the
// synchronous monitor and under the batched plane. The file is excluded
// under -race, which adds allocations of its own.
func TestRunAllocs(t *testing.T) {
	plain := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int sq(int x) { int y = x * x; return y; }
int main(int n) {
	int acc = 0;
	int i = 0;
	while (i < n) { acc = acc + sq(i); i++; }
	return acc + fib(10);
}
`
	instrumented := `
int chk(int x) { return 0; }
int work(int n) {
	int i = 0;
	int acc = 0;
	while (i < n) {
		int c = chk(i);
		acc = acc + i * 3 % 11 + c;
		i++;
	}
	TESLA_WITHIN(main, previously(chk(ANY(int)) == 0));
	return acc;
}
int main(int n) { return work(n); }
`
	for _, tc := range []struct {
		name  string
		src   string
		batch int // 0: uninstrumented; < 0: synchronous monitor
	}{
		{"plain", plain, 0},
		{"sync", instrumented, -1},
		{"batched", instrumented, 256},
	} {
		res, err := build.Run(map[string]string{"p.c": tc.src}, build.Options{Instrument: tc.batch != 0, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		vm := New(res.Program)
		if tc.batch != 0 {
			m, err := monitor.New(monitor.Options{Handler: core.NopHandler{}, Memory: vm, BatchSize: max(tc.batch, 0)}, res.Autos...)
			if err != nil {
				t.Fatal(err)
			}
			vm.AttachThread(m.NewThread())
		}
		run := func() {
			if _, err := vm.Run("main", 20); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up: grow the register stack and heap, and give every slot
		// of the batched plane's two rings its ops buffer.
		for i := 0; i < 2*256; i++ {
			run()
		}
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", tc.name, got)
		}
	}
}

// csubdemo walks the complete compiler-path workflow of §4 on an embedded
// two-file program: analyse the C-subset sources into .tesla manifests,
// compile to IR, instrument against the combined manifest, and execute on
// the IR interpreter — once on a correct path and once on a path whose
// missing check TESLA flags at run time.
//
//	go run ./examples/csubdemo
package main

import (
	"fmt"
	"os"
	"strings"

	"tesla/internal/core"
	"tesla/internal/monitor"
	"tesla/internal/toolchain"
)

var sources = map[string]string{
	// The "framework": performs the access-control check.
	"framework.c": `
int mac_check_access(int cred, int obj) {
	if (cred < 0) { return 13; }
	return 0;
}

int framework_dispatch(struct req *r, int checked) {
	if (checked) {
		int err = mac_check_access(r->cred, r);
		if (err != 0) { return err; }
	}
	return object_method(r);
}
`,
	// The "object layer": asserts the framework checked first.
	"object.c": `
struct req { int cred; int obj; };

int object_method(struct req *r) {
	TESLA_SYSCALL_PREVIOUSLY(mac_check_access(ANY(int), r) == 0);
	return 42;
}

int amd64_syscall(struct req *r, int checked) {
	return framework_dispatch(r, checked);
}

int main(int checked) {
	struct req *r = alloc(req);
	r->cred = 7;
	r->obj = 99;
	return amd64_syscall(r, checked);
}
`,
}

func main() {
	build, err := toolchain.BuildProgram(sources, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("== combined .tesla manifest ==")
	var buf strings.Builder
	build.Manifest.Encode(&buf)
	fmt.Println(buf.String())

	fmt.Printf("== instrumentation ==\n%d automata, %d hooks, %d event translators, %d sites\n\n",
		len(build.Autos), build.Stats.Hooks, build.Stats.Translators, build.Stats.Sites)

	fmt.Println("== instrumented IR for object_method ==")
	fmt.Print(build.Program.Func("object_method").String())
	fmt.Println()

	runOnce := func(checked int64) {
		handler := core.NewCountingHandler()
		ret, _, err := build.Run("main", monitor.Options{Handler: handler}, checked)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("main(checked=%d) = %d; violations: %d\n", checked, ret, len(handler.Violations()))
		for _, v := range handler.Violations() {
			fmt.Printf("  %v\n", v)
		}
	}

	fmt.Println("== execution ==")
	runOnce(1) // framework performs the check: assertion holds
	runOnce(0) // check skipped: TESLA reports the missing check
}

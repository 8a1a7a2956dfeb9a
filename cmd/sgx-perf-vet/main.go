// Command sgx-perf-vet runs the repository's own static-analysis suite
// (internal/lint), all ten analyzers over one parsed and type-checked
// tree:
//
//   - vclock: no wall-clock reads in simulator packages;
//   - hotpath: no Logger-level mutex on the logger's hot path;
//   - lockorder: one global lock-acquisition order (an acyclic graph);
//   - heldacross: no lock held across a channel op, pool fan-out or
//     ocall dispatch;
//   - atomicmix: no field accessed both atomically and plainly;
//   - transamp: no ocall dispatch inside a loop, directly or through a
//     callee;
//   - doublefetch: no boundary buffer re-read after an ocall crossing;
//   - ptrescape: no enclave pointer passed as an ocall argument;
//   - secretflow: no //sgxperf:secret data reaching a boundary sink
//     unsealed;
//   - edlflow: handlers treat their buffers as the EDL directions say.
//
// It exits non-zero when any diagnostic is reported, so `make verify`
// fails on violations. Imports from outside the tree are read from the
// go command's export data, so the go command should be on PATH;
// without it the suite falls back to type-checking them from source,
// with the same diagnostics but several times slower.
//
// Usage:
//
//	sgx-perf-vet            # analyse the tree rooted at .
//	sgx-perf-vet -root ../  # analyse another checkout
//	sgx-perf-vet -list      # print the analyzers and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/lint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-vet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root    = flag.String("root", ".", "repository root to analyse")
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
		list    = flag.Bool("list", false, "print the analyzer suite and exit")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return nil
	}

	n, err := vet(*root, *jsonOut, os.Stdout)
	if err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("%d diagnostic(s)", n)
	}
	return nil
}

// vet runs the full suite over the tree at root, writes the diagnostics
// to w (plain lines, or an api/v1 vet document when jsonOut is set) and
// returns their count.
func vet(root string, jsonOut bool, w io.Writer) (int, error) {
	analyzers := lint.Analyzers()
	diags, err := lint.Run(root, analyzers)
	if err != nil {
		return 0, err
	}
	if jsonOut {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		raw, err := apiv1.Marshal(apiv1.FromDiagnostics(root, names, diags))
		if err != nil {
			return 0, err
		}
		fmt.Fprint(w, string(raw))
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	return len(diags), nil
}

// Command benchdiff compares two `go test -bench` outputs and writes a
// machine-readable JSON report. It is the repository's benchmark
// regression gate: CI runs the benchmarks on the base and head
// commits, feeds both outputs here, and fails the build when any
// benchmark's allocs/op regressed beyond the threshold.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . > old.txt   # on main
//	go test -run '^$' -bench . -benchtime 1x . > new.txt   # on the branch
//	benchdiff -old old.txt -new new.txt -out BENCH.json
//
// Benchmarks present in only one input are reported but not gated.
// The ns/op column is informational only — wall-clock is too noisy on
// shared runners to gate on — while allocs/op is deterministic for a
// deterministic benchmark and therefore enforceable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		oldPath   = flag.String("old", "", "baseline `go test -bench` output")
		newPath   = flag.String("new", "", "candidate `go test -bench` output")
		outPath   = flag.String("out", "", "write the JSON report here (default stdout)")
		threshold = flag.Float64("max-alloc-regress", 0.10, "fail when allocs/op grows by more than this fraction")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	oldRes, err := parseFile(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRes, err := parseFile(*newPath)
	if err != nil {
		fatal(err)
	}
	report := diff(oldRes, newRes, *threshold)
	report.NumCPU = runtime.NumCPU()
	report.GOMAXPROCS = runtime.GOMAXPROCS(0)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fatal(err)
	}

	for _, b := range report.Benchmarks {
		if b.AllocRegression {
			fmt.Fprintf(os.Stderr, "benchdiff: %s allocs/op regressed %.0f -> %.0f (limit +%.0f%%)\n",
				b.Name, b.Old.AllocsPerOp, b.New.AllocsPerOp, *threshold*100)
		}
	}
	if report.Failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

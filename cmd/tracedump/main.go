// Command tracedump generates, saves, inspects and summarizes
// reference traces in the library's binary trace formats: the flat
// stream format and (with -chunked) the chunked delta format, whose
// per-chunk CRC-protected headers allow seekable, bounded-memory
// replay. Reading auto-detects the format from the file header.
//
// Usage:
//
//	tracedump -workload TRFD_4 -out trfd.trc          # generate + save
//	tracedump -workload TRFD_4 -chunked -out trfd.trk # chunked format
//	tracedump -in trfd.trc                            # summarize a file
//	tracedump -in trfd.trc -print 20                  # print refs
//	tracedump -workload Shell                         # summarize directly
package main

import (
	"flag"
	"fmt"
	"os"

	"oscachesim/internal/core"
	"oscachesim/internal/trace"
	"oscachesim/internal/workload"
)

func main() {
	var (
		wname   = flag.String("workload", string(workload.TRFD4), "workload to generate")
		sname   = flag.String("system", "Base", "system whose kernel build to trace")
		scale   = flag.Int("scale", 0, "scheduling rounds (0 = default)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		out     = flag.String("out", "", "write the generated trace to this file")
		in      = flag.String("in", "", "read and summarize a trace file instead of generating (format auto-detected)")
		nprint  = flag.Int("print", 0, "print the first N references")
		chunked = flag.Bool("chunked", false, "write -out in the chunked delta format (per-chunk CRC headers, skippable)")
	)
	flag.Parse()

	var src trace.Source
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src, err = openTrace(f)
		if err != nil {
			fatal(err)
		}
	default:
		w, err := workload.ParseName(*wname)
		if err != nil {
			fatal(err)
		}
		sys, err := core.ParseSystem(*sname)
		if err != nil {
			fatal(err)
		}
		built := workload.Build(w, sys.KernelOpt(), *scale, *seed)
		src = mergeSources(built)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		var write func(trace.Ref) error
		var finish func() error
		if *chunked {
			w := trace.NewChunkWriter(f, 0)
			write, finish = w.WriteRef, w.Flush
		} else {
			w := trace.NewWriter(f)
			write, finish = w.WriteRef, w.Flush
		}
		n := 0
		for {
			ref, ok := src.Next()
			if !ok {
				break
			}
			if err := write(ref); err != nil {
				fatal(err)
			}
			n++
		}
		if err := finish(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d references to %s\n", n, *out)
		return
	}

	if *nprint > 0 {
		for i := 0; i < *nprint; i++ {
			ref, ok := src.Next()
			if !ok {
				break
			}
			fmt.Println(ref)
		}
		return
	}

	s := trace.Summarize(src)
	fmt.Printf("total refs:   %d\n", s.Total)
	fmt.Printf("instructions: %d\n", s.Instrs)
	fmt.Printf("data reads:   %d\n", s.DataReads)
	fmt.Printf("data writes:  %d\n", s.Writes)
	fmt.Printf("prefetches:   %d\n", s.Prefetch)
	fmt.Printf("DMA ops:      %d\n", s.DMAOps)
	fmt.Printf("block ops:    %d (%d refs inside)\n", s.BlockOps, s.BlockRefs)
	fmt.Printf("sync ops:     %d\n", s.Syncs)
	fmt.Println("by mode:")
	for _, k := range []trace.Kind{trace.KindUser, trace.KindOS, trace.KindIdle} {
		fmt.Printf("  %-5s %d\n", k, s.ByKind[k])
	}
	fmt.Println("top data classes:")
	for c := trace.ClassGeneric; c <= trace.ClassStack; c++ {
		if n := s.ByClass[c]; n > 0 {
			fmt.Printf("  %-12s %d\n", c, n)
		}
	}
}

// openTrace sniffs the file header and attaches the matching reader:
// a bounded-memory FileSource for the chunked format, a flat Reader
// otherwise.
func openTrace(f *os.File) (trace.Source, error) {
	src, err := trace.OpenSource(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	return src, nil
}

// mergeSources interleaves the per-CPU streams round-robin for
// single-stream output.
func mergeSources(b *workload.Built) trace.Source {
	srcs := b.Sources()
	i := 0
	return trace.FuncSource(func() (trace.Ref, bool) {
		for tries := 0; tries < len(srcs); tries++ {
			r, ok := srcs[i%len(srcs)].Next()
			i++
			if ok {
				return r, true
			}
		}
		return trace.Ref{}, false
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}

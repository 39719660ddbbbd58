// Command tracedump generates, saves, inspects and summarizes
// reference traces in the library's chunked trace format, whose
// per-chunk CRC-protected headers allow bounded-memory replay and turn
// a truncated or corrupt file into an error.
//
// Usage:
//
//	tracedump -workload TRFD_4 -out trfd.trk # generate + save
//	tracedump -in trfd.trk                   # summarize a file
//	tracedump -in trfd.trk -print 20         # print refs
//	tracedump -workload Shell                # summarize directly
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
		wname  = flag.String("workload", string(workload.TRFD4), "workload to generate")
		sname  = flag.String("system", "Base", "system whose kernel build to trace")
		scale  = flag.Int("scale", 0, "scheduling rounds (0 = default)")
		seed   = flag.Int64("seed", 1, "deterministic seed")
		out    = flag.String("out", "", "write the generated trace to this file")
		in     = flag.String("in", "", "read and summarize a trace file instead of generating")
		nprint = flag.Int("print", 0, "print the first N references")
	)
	flag.Parse()

	var src trace.Source
	// checkRead fails the command when reading the -in file ended on a
	// decode error rather than at the end of the trace.
	checkRead := func() {}
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		file, err := trace.OpenSource(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *in, err))
		}
		src = file
		checkRead = func() {
			if err := file.Err(); err != nil {
				fatal(fmt.Errorf("%s: %w", *in, err))
			}
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
		src = &roundRobin{per: append([][]trace.Ref(nil), built.PerCPU...)}
	}

	var buf [256]trace.Ref
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w := trace.NewChunkWriter(f, 0)
		for n := src.Read(buf[:]); n > 0; n = src.Read(buf[:]) {
			for _, ref := range buf[:n] {
				if err := w.WriteRef(ref); err != nil {
					fatal(err)
				}
			}
		}
		checkRead()
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d references to %s\n", w.Count(), *out)
		return
	}

	if *nprint > 0 {
		for left := *nprint; left > 0; {
			n := src.Read(buf[:min(left, len(buf))])
			if n == 0 {
				break
			}
			for _, ref := range buf[:n] {
				fmt.Println(ref)
			}
			left -= n
		}
		checkRead()
		return
	}

	s := trace.Summarize(src)
	checkRead()
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

// roundRobin merges per-CPU streams into the single stream a trace file
// holds: one reference from each stream in turn, skipping the streams
// that have ended.
type roundRobin struct {
	per  [][]trace.Ref
	next int
}

// Read implements trace.Source.
func (m *roundRobin) Read(dst []trace.Ref) int {
	n := 0
	for ended := 0; n < len(dst) && ended < len(m.per); {
		c := m.next
		m.next = (c + 1) % len(m.per)
		if len(m.per[c]) == 0 {
			ended++
			continue
		}
		dst[n], m.per[c] = m.per[c][0], m.per[c][1:]
		n++
		ended = 0
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}

// Command paper regenerates the paper's evaluation — Tables 1-5,
// Figures 1-7 and the Section 5.2 traffic study, each printed next to
// the published values — and the ablation studies that quantify the
// sensitivity of its results to its design choices.
//
// Selected experiments render concurrently on one worker pool of
// -workers goroutines, sharing one runner and its result store, and
// print in selection order, so the output is identical at every worker
// count.
//
// Usage:
//
//	paper                               # the paper in order, then the ablations
//	paper -run tables                   # Tables 1-5
//	paper -run figures                  # Figures 1-7 and update-traffic
//	paper -run ablations                # the ablation and analysis studies
//	paper -run table1,figure3,update-set -scale 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"oscachesim/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "paper: interrupted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "paper:", err)
		}
		os.Exit(1)
	}
}

// run parses args, renders the selected experiments and writes each
// one's text, newline-terminated, to stdout in selection order.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	var (
		sel     = fs.String("run", "all", "comma-separated experiment ids and groups (all, tables, figures, ablations)")
		scale   = fs.Int("scale", 0, "scheduling rounds per workload (0 = default)")
		seed    = fs.Int64("seed", 1, "deterministic seed")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "experiments rendered at once (1 = serial; output is identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, err := selection(*sel)
	if err != nil {
		return err
	}

	// Ctrl-C / SIGTERM cancels the in-flight simulations promptly
	// instead of letting the renders run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := experiment.NewRunnerContext(ctx, experiment.Config{Scale: *scale, Seed: *seed, Workers: *workers})
	// Renders finish out of order; each is printed as soon as every
	// experiment selected before it has been.
	var (
		mu   sync.Mutex
		outs = make([]*string, len(exps))
		next = 0
	)
	return r.RenderEach(exps, func(i int, out string) {
		mu.Lock()
		defer mu.Unlock()
		outs[i] = &out
		for ; next < len(outs) && outs[next] != nil; next++ {
			fmt.Fprintln(stdout, *outs[next])
		}
	})
}

// selection resolves a -run list: experiment ids, and the groups
// "tables" (Tables 1-5), "figures" (Figures 1-7 and the Section 5.2
// traffic study), "ablations" and "all" (the paper in order, then the
// ablations).
func selection(list string) ([]experiment.Experiment, error) {
	var tables, figures []experiment.Experiment
	for _, e := range experiment.All() {
		if strings.HasPrefix(e.ID, "table") {
			tables = append(tables, e)
		} else {
			figures = append(figures, e)
		}
	}
	groups := map[string][]experiment.Experiment{
		"all":       append(experiment.All(), experiment.Ablations()...),
		"tables":    tables,
		"figures":   figures,
		"ablations": experiment.Ablations(),
	}
	var exps []experiment.Experiment
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if g, ok := groups[id]; ok {
			exps = append(exps, g...)
			continue
		}
		e, err := experiment.Find(id)
		if err != nil {
			return nil, fmt.Errorf("%w; or a group: all, tables, figures, ablations", err)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

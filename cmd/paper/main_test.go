package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oscachesim/internal/experiment"
)

// testArgs is experiment.TestConfig as flags: the configuration the
// golden files were rendered with.
var testArgs = []string{"-scale", "5", "-seed", "1", "-workers", "1"}

func runPaper(t *testing.T, ids string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-run", ids}, testArgs...), &out); err != nil {
		t.Fatalf("-run %s: %v", ids, err)
	}
	return out.String()
}

// TestPaperMatchesGoldens checks each paper experiment's stdout is its
// golden rendering plus the newline that ends every printed
// experiment.
func TestPaperMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full paper grid")
	}
	for _, e := range experiment.All() {
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiment", "testdata", "golden", e.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runPaper(t, e.ID); got != string(want)+"\n" {
				t.Errorf("stdout differs from %s.golden:\n%s", e.ID, got)
			}
		})
	}
}

// TestPaperAblation checks ablation ids print their direct renders in
// selection order, also when two workers render them at once.
func TestPaperAblation(t *testing.T) {
	var want string
	for _, id := range []string{"dma-rate", "update-set"} {
		e, err := experiment.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Render(experiment.NewRunner(experiment.TestConfig()))
		if err != nil {
			t.Fatal(err)
		}
		want += out + "\n"
	}
	for _, workers := range []string{"1", "2"} {
		var got bytes.Buffer
		args := append([]string{"-run", "dma-rate,update-set"}, testArgs...)
		if err := run(append(args, "-workers", workers), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Errorf("-workers %s printed\n%s\nwant\n%s", workers, got.String(), want)
		}
	}
}

// TestPaperUnknownID checks an unknown id fails before any simulation,
// naming the valid ids and groups.
func TestPaperUnknownID(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "table1,nope"}, &out)
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, name := range []string{`"nope"`, "table1", "update-traffic", "update-set", "ablations"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}

package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of comparing against
// them: go test ./internal/experiment/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden and testdata/golden-ablations files from current output")

// TestGoldenExperiments renders every experiment at the standard test
// configuration and compares the output byte-for-byte against the
// checked-in golden files. Any change to the simulator, the workload
// generator, or the renderers that shifts a single number shows up as
// a diff here — the whole-pipeline regression net.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden renders include the slow geometry sweeps")
	}
	checkGoldens(t, All(), "golden", nil)
}

// TestGoldenAblations pins the seven ablation and analysis studies the
// same way. Their goldens live in a directory of their own, apart from
// the paper goldens that core's SimVersion digest covers. Each study
// must also open with its "Ablation:" or "Analysis:" header and print
// at least a header, a column line and two rows.
func TestGoldenAblations(t *testing.T) {
	checkGoldens(t, Ablations(), "golden-ablations", func(t *testing.T, out string) {
		if !strings.Contains(out, "Ablation:") && !strings.Contains(out, "Analysis:") {
			t.Errorf("missing header:\n%s", out)
		}
		if strings.Count(out, "\n") < 4 {
			t.Errorf("too few rows:\n%s", out)
		}
	})
}

// checkGoldens renders each experiment at the test configuration, runs
// check (if any) on its output, and compares it with (or, under
// -update, writes it to) testdata/<dir>/<id>.golden.
func checkGoldens(t *testing.T, exps []Experiment, dir string, check func(*testing.T, string)) {
	r := testRunner()
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got, err := e.Render(r)
			if err != nil {
				t.Fatal(err)
			}
			if check != nil {
				check(t, got)
			}
			path := filepath.Join("testdata", dir, e.ID+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, path, got, want)
			}
		})
	}
}

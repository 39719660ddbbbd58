package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// pinnedSimVersion is the SimVersion the golden files below were last
// pinned under, and goldensDigest is their digest at that version. The
// goldens are the repository's record of simulated behaviour, so a
// change to them is a change of simulation semantics, which SimVersion
// must announce: stored results under the old version are then dropped
// at replay instead of being served as current.
const (
	pinnedSimVersion = "oscachesim/sim/v1"
	goldensDigest    = "84265e94366dc7d6b38d1fab01bb79c061caa4acb82dcfa08249eb238e001e44"
)

// goldenGlobs are the golden files the digest covers: the 13 paper
// tables and figures and the scenario goldens.
var goldenGlobs = []string{
	"../experiment/testdata/golden/*.golden",
	"../scenario/testdata/golden/*.golden",
}

// digestGoldens hashes every golden file's name and contents in path
// order.
func digestGoldens(t *testing.T) (string, int) {
	t.Helper()
	var paths []string
	for _, g := range goldenGlobs {
		m, err := filepath.Glob(g)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), len(paths)
}

// TestSimVersionTracksGoldens makes the SimVersion rule executable: the
// golden files may change only together with SimVersion, and the pinned
// pair is then re-pinned to the new version and digest.
func TestSimVersionTracksGoldens(t *testing.T) {
	got, n := digestGoldens(t)
	if n != 19 {
		t.Fatalf("%d golden files, want 13 paper + 6 scenario", n)
	}
	switch {
	case got != goldensDigest && SimVersion == pinnedSimVersion:
		t.Errorf("the goldens changed (digest %s, pinned %s) but SimVersion is still %q: "+
			"bump SimVersion in key.go, then pin the new version and digest here", got, goldensDigest, SimVersion)
	case SimVersion != pinnedSimVersion:
		t.Errorf("SimVersion is %q but the goldens are pinned under %q: pin the new version with digest %s",
			SimVersion, pinnedSimVersion, got)
	}
}

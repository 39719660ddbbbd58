package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded with every result: the machine, the build,
// the inputs and the sample counts behind the percentiles.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// GitCommit is the checked-out commit, "unknown" outside a git
	// checkout; SourceSHA256 identifies the Go sources either way.
	GitCommit    string  `json:"git_commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Clients      int     `json:"clients"`
	SetupRuns    int     `json:"setup_runs"`
	// Samples is the number of completed results whose latencies the
	// percentiles are taken over.
	Samples int `json:"samples"`
	// TailPercentile is the percentile run_ptail_ms reports.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// Digest is a library workload's fixed-seed counter digest.
	Digest string `json:"digest,omitempty"`
}

func (e *environment) fill(opt options, def workloadDef) {
	e.NumCPU = runtime.NumCPU()
	e.GOMAXPROCS = runtime.GOMAXPROCS(0)
	e.GoVersion = runtime.Version()
	e.GOOS, e.GOARCH = runtime.GOOS, runtime.GOARCH
	e.GitCommit = gitCommit(opt.Root)
	e.SourceSHA256 = sourceDigest(opt.Root)
	e.Workload = opt.Workload
	e.Seed = opt.Seed
	e.Seconds = opt.Duration.Seconds()
	e.Trace = opt.Trace
	e.Clients = def.clients
	e.SetupRuns = setupRuns
}

// gitCommit reads the checked-out commit from the repository's .git
// directory without running git.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// dot-directories (version control, build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\n")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

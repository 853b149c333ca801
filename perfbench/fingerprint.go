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

// hostPrint identifies the machine and toolchain a result was measured
// with. Two results are comparable only when their host prints match;
// records from different hosts are never compared as if they matched.
type hostPrint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// fingerprint is the host print plus what was measured: the program
// version (git commit when the checkout has one, and always a digest of
// the Go sources) and the run's workload, seed and settings.
type fingerprint struct {
	Host         hostPrint `json:"host"`
	Commit       string    `json:"commit"`
	SourceDigest string    `json:"source_digest"`
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      int       `json:"seconds"`
	Trace        bool      `json:"trace"`
}

func currentHost() hostPrint {
	return hostPrint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// comparable reports why two results may not be compared, or "" when
// they may: same host print, workload, run length and mode. Commits and
// seeds may differ — comparing versions across seeds is the point.
func comparable(a, b fingerprint) string {
	switch {
	case a.Host != b.Host:
		return "host fingerprints differ"
	case a.Workload != b.Workload:
		return "workloads differ"
	case a.Seconds != b.Seconds:
		return "run lengths differ"
	case a.Trace != b.Trace:
		return "one run is traced"
	}
	return ""
}

// gitCommit reads the checked-out commit from root/.git without running
// git; "unknown" when root is not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref // detached HEAD
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot-directories such as .git and the build directory), so a
// record names the exact program version even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not stop the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

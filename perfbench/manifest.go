package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// manifest is the provenance stamped into every result. Two results are
// comparable only when their Key fields are equal: Key covers everything
// here except the commit, the source digest and the seed, which are what
// a comparison between commits or seeds varies on purpose.
type manifest struct {
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Host         string `json:"host"`
	RefHost      string `json:"reference_host"`
	Workload     string `json:"workload"`
	Bench        string `json:"bench"`
	Threads      int    `json:"threads"`
	Scale        int    `json:"scale"`
	Seed         int64  `json:"seed"`
	Traced       bool   `json:"traced"`
	ConfigDigest string `json:"config_digest"`
	Key          string `json:"key"`
}

func newManifest(b *bench, root string, traced bool) (manifest, error) {
	cfg, err := json.Marshal(b.cfg)
	if err != nil {
		return manifest{}, err
	}
	src, err := sourceDigest(root)
	if err != nil {
		return manifest{}, err
	}
	m := manifest{
		Commit:       vcsRevision(),
		SourceDigest: src,
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Host:         "real",
		RefHost:      "sim",
		Workload:     b.name,
		Bench:        b.bench,
		Threads:      b.params.Threads,
		Scale:        b.params.Scale,
		Seed:         b.params.Seed,
		Traced:       traced,
		ConfigDigest: digest(cfg),
	}
	k := m
	k.Commit, k.SourceDigest, k.Seed = "", "", 0
	kb, err := json.Marshal(k)
	if err != nil {
		return manifest{}, err
	}
	m.Key = digest(kb)[:16]
	return m, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// vcsRevision is the commit the binary was built from, when the build
// saw a git checkout; "unknown" otherwise (the source digest still
// identifies the code).
func vcsRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the path and contents of every .go file and go.mod
// under root, skipping hidden directories (build output lives in one).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

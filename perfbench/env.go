package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stampEnv settles GOMAXPROCS and describes the host, toolchain and
// source the numbers come from. GOMAXPROCS defaults to one per
// simulation worker the workload runs (capped at the CPU count): with a
// spare P, the garbage collector and the heap sampler run on the other
// CPU, which spreads the run's timings far more on a shared host and
// hides their cost. A GOMAXPROCS above the CPU count is rejected: an
// oversubscribed run times the host's scheduler, not the simulator.
func stampEnv(workers int) (string, error) {
	nproc := runtime.NumCPU()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(nproc, workers))
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > nproc {
		return "", fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", procs, nproc)
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		nproc, procs, cpuModel(), runtime.Version(), commit()), nil
}

// cpuModel returns the host CPU's model name, or the architecture when
// the kernel does not say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commit names the source under test: the VCS revision stamped into the
// binary when it was built inside a repository, otherwise a hash of the
// simulator's go.mod and Go sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "src-" + sourceDigest()
}

// sourceDigest hashes the simulator module's go.mod and the Go files of
// its internal packages. The benchmark runs from the repository root;
// its self-tests run from this directory, one level down.
func sourceDigest() string {
	root := "."
	if _, err := os.Stat("internal"); err != nil {
		root = ".."
	}
	files := []string{filepath.Join(root, "go.mod")}
	for _, pat := range []string{"internal/*/*.go", "internal/*/*/*.go"} {
		m, _ := filepath.Glob(filepath.Join(root, pat)) // only malformed patterns fail
		files = append(files, m...)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

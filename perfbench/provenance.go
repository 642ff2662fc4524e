package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance stamps a result with where and when it was measured. Every
// value comes from this invocation.
func provenance(bin string, seed uint64) map[string]string {
	p := map[string]string{
		"go":          runtime.Version(),
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":         cpuModel(),
		"seed":        strconv.FormatUint(seed, 10),
		"measured_at": time.Now().UTC().Format(time.RFC3339),
		"commit":      commit(),
	}
	if d, err := fileDigest(filepath.Join(bin, "climatebench")); err == nil {
		p["climatebench_sha256"] = d[:16]
	}
	return p
}

// commit is the git commit of the checkout in the working directory, or
// "unknown" when it is not a git repository of its own (the binary digest
// still identifies the code measured).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first "model name" of /proc/cpuinfo, with spaces
// replaced so the provenance line stays space-separated.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	//lint:errdrop read side; a failed Close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.Join(strings.Fields(v), "_")
		}
	}
	return "unknown"
}

// fileDigest is the hex SHA-256 of a file's contents.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	//lint:errdrop read side; a failed Close cannot lose data
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine records where and from what a result was measured.
type machine struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	GitRevision string `json:"git_revision"`
	GitDirty    bool   `json:"git_dirty"`
}

func thisMachine() machine {
	m := machine{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: "unknown", GitRevision: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no revision to record.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitRevision = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		m.GitDirty = err != nil || len(status) > 0
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

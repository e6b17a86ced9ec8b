package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runRecord is carried by every result: enough about the code, the
// machine and the settings for two result sets to be comparable, or
// visibly not.
type runRecord struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	BaseSeed   int64   `json:"base_seed"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops"`
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	// DataDirFS is the filesystem type under the scratch directory: a
	// tmpfs there hides the fsync cost the store metrics exist to show.
	DataDirFS string  `json:"data_dir_fs"`
	WallS     float64 `json:"wall_s"`
}

func newRecord(cfg runConfig) runRecord {
	return runRecord{
		Workload:   cfg.workload,
		Traced:     cfg.trace,
		Smoke:      cfg.smoke,
		BaseSeed:   cfg.seed,
		Seconds:    cfg.seconds,
		GitCommit:  gitCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(cfg.tmpRoot),
	}
}

// gitCommit names the checkout's commit; the PR driver runs the benchmark
// from an export that is not a repository, which is recorded as such.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
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

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// usage is the process's CPU time so far and its peak resident set.
type usage struct {
	cpuMS     float64
	peakRSSMB float64
}

func processUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return usage{
		cpuMS:     ms(ru.Utime) + ms(ru.Stime),
		peakRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"aurora/internal/resultstore"
)

// hostBlock names the machine and build a record came from, so records
// from different hosts or commits are never compared as if they were one.
type hostBlock struct {
	CPUModel    string `json:"cpu_model"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	CodeVersion string `json:"code_version"`
	Seed        int64  `json:"seed"`
}

func host(root string, seed int64) hostBlock {
	return hostBlock{
		CPUModel:    cpuModel(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Commit:      commit(root),
		CodeVersion: resultstore.CodeVersion(),
		Seed:        seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit (with "-dirty" for modified
// trees), else the VCS stamp of the build, else "unknown" — a checkout
// exported without .git has neither.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		c := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			c += "-dirty"
		}
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// procStatusKB reads a "VmHWM"-style field (in kB) from /proc/<pid>/status.
func procStatusKB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%s/status", field, pid)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so the peak covers the measured phase and not set-up.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: all ticks, and the
// steal ticks a hypervisor gave other guests while this one wanted to run.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealMeter reports the share of CPU time stolen by the hypervisor over
// an interval — a sign that other guests slowed this run down.
type stealMeter struct{ total, steal uint64 }

func newStealMeter() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) pct() float64 {
	t, s := cpuTicks()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

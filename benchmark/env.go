package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp records the machine and the source a report came from. GitSHA is
// the commit, with "+dirty" appended when the tree has uncommitted changes;
// it is left out when the checkout is not a git repository.
type stamp struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha,omitempty"`
}

func readStamp() stamp {
	st := stamp{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return st
	}
	st.GitSHA = strings.TrimSpace(string(sha))
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(out))) > 0 {
		st.GitSHA += "+dirty"
	}
	return st
}

func (st stamp) String() string {
	git := st.GitSHA
	if git == "" {
		git = "none"
	}
	return fmt.Sprintf("cpus=%d gomaxprocs=%d go=%s git=%s", st.CPUs, st.GOMAXPROCS, st.GoVersion, git)
}

// peakRSSMB reads the process's high-water resident set (VmHWM); ok is
// false where /proc does not offer it.
func peakRSSMB() (mb float64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

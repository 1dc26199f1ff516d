package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCPU returns the CPU time every live thread of a process ("self" for
// castload itself) has run, summed from /proc/<pid>/task/*/schedstat,
// which counts nanoseconds where /proc/<pid>/stat counts 10 ms ticks.
// Time the host steals from the virtual CPU is not counted.
func procCPU(pid string) (time.Duration, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: VmHWM %q", pid, rest)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// setPdeathsig makes a child die with castload, so a castload killed from
// outside leaves no castd behind.
func setPdeathsig(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func pidOf(nd *node) string { return strconv.Itoa(nd.cmd.Process.Pid) }

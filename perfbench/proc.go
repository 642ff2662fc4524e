package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished program run.
type procResult struct {
	stdout []byte
	wall   time.Duration // launch to exit
	cpu    time.Duration // user+sys of the process and every descendant it waited for
	maxRSS int64         // bytes: the largest resident set among those processes
}

// command prepares bin in its own process group, so that cancelling ctx
// stops the program together with any children it started.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// runProgram runs bin to completion and measures it. A non-zero exit is
// an error that carries the tail of the program's standard error.
func runProgram(ctx context.Context, bin string, args ...string) (procResult, error) {
	cmd := command(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := procResult{stdout: stdout.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		res.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, tail(stderr.Bytes(), 400))
	}
	return res, nil
}

// tail returns the last n bytes of b as a string.
func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+sys CPU time a live process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

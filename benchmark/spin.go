package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Why the rig spins. This benchmark runs in a VM whose idle vCPUs halt, and
// a halted vCPU runs again only when the host schedules it. A closed loop of
// 2 connections halts and wakes a vCPU several times per op, so whenever
// the host is busy every op waits on the host's scheduler: measured here,
// kv_small fell from ~12 k to 3–7 k ops/s for minutes at a time with
// /proc/stat showing 25–40 % steal, on unchanged code. One SCHED_IDLE
// spinner per CPU keeps the vCPUs from ever halting. Anything runnable
// preempts a SCHED_IDLE task at once and the kernel places wake-ups as if
// the CPU were idle, so the programs under test lose nothing to it; under
// the same host load the same workload then held 11–16 k ops/s at 2–4 %
// steal. host.steal_pct reports what is left.

// spinMain is a spinner child: one thread at SCHED_IDLE priority, never
// sleeping, on the one CPU its parent confined it to.
func spinMain() int {
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE from <linux/sched.h>; package syscall does not name it
	var param int32     // struct sched_param{ sched_priority = 0 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "spin: sched_setscheduler(SCHED_IDLE):", e)
		return 1
	}
	for {
	}
}

// startSpinners launches a spinner on each of the rig's two CPUs from this
// same binary. They
// are children like any other: stopAll ends them. A host that refuses
// SCHED_IDLE or affinity gets a warning, not a failed run.
func (r *rig) startSpinners() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var started []*child
	for _, cpu := range []int{r.testbedCPU, r.dutCPU} {
		logf, err := os.Create(filepath.Join(r.outDir, fmt.Sprintf("spin%d.stderr", cpu)))
		if err != nil {
			return err
		}
		cmd := exec.Command(self, "spin")
		cmd.Stderr = logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		c, err := r.launch(fmt.Sprintf("spin%d", cpu), cmd, cpu)
		logf.Close()
		if err != nil {
			return err
		}
		started = append(started, c)
	}
	// A spinner that cannot set itself up exits at once.
	time.Sleep(20 * time.Millisecond)
	for _, c := range started {
		select {
		case <-c.done:
			fmt.Fprintf(os.Stderr, "benchmark: warning: %s exited (%v): vCPUs may halt, expect host steal in the numbers\n", c.name, c.err)
		default:
		}
	}
	return nil
}

// hostJiffies returns the host-stolen and the total CPU time of the whole
// machine so far, in USER_HZ ticks, from the first line of /proc/stat.
func hostJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, s := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

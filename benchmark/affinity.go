package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (uint(cpu) % 64)
	return m
}

func setAffinity(tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(uint(i)%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinSelf confines every thread of this process to one CPU; threads the
// runtime creates later inherit the mask from the thread that clones them.
func pinSelf(cpu int) error {
	m := oneCPU(cpu)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &m); err != nil {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// pinGenerator confines every thread of this process to testbedCPU, one P.
func (r *rig) pinGenerator() error {
	runtime.GOMAXPROCS(1)
	return pinSelf(r.testbedCPU)
}

// startOn starts cmd confined to one CPU: the child inherits the mask of
// the thread that forks it, so that thread takes the mask for the length of
// the fork and then its own back.
func startOn(cmd *exec.Cmd, cpu int, back int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m := oneCPU(cpu)
	if err := setAffinity(0, &m); err != nil {
		return err
	}
	err := cmd.Start()
	m = oneCPU(back)
	if e := setAffinity(0, &m); e != nil && err == nil {
		err = e
	}
	return err
}

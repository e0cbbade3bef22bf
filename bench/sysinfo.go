package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// printHost writes the run-environment line (Go version, GOMAXPROCS,
// CPU count and model, load average) and warns on stderr when the host
// is busy enough to disturb the timings: a 1-minute load above
// nproc - 1 means another process competes for the CPUs.
func printHost(w io.Writer, when string) {
	load := readLine("/proc/loadavg")
	fmt.Fprintf(w, "# %s: go=%s GOMAXPROCS=%d nproc=%d cpu=%q loadavg=%q\n",
		when, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), load)
	if f := strings.Fields(load); len(f) > 0 {
		if l1, err := strconv.ParseFloat(f[0], 64); err == nil && l1 > float64(runtime.NumCPU()-1) {
			fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load %.2f exceeds nproc-1 = %d at %s; timings may be disturbed\n",
				l1, runtime.NumCPU()-1, when)
		}
	}
}

// cpuStat is the machine's CPU time so far, in clock ticks, from the
// first line of /proc/stat: all of it, and the part the hypervisor stole
// from this VM to run others.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f := strings.Fields(readLine("/proc/stat"))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// printSteal writes the share of the VM's CPU time stolen since start.
// Wall-clock times include it; the CPU-time metrics do not.
func printSteal(w io.Writer, start cpuStat) {
	end := readCPUStat()
	if end.total <= start.total {
		return
	}
	fmt.Fprintf(w, "# host: %.1f%% of the VM's CPU time was stolen by the hypervisor during the run\n",
		100*float64(end.steal-start.steal)/float64(end.total-start.total))
}

func readLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// threadCPU is the CPU time the calling OS thread has run so far. run
// locks the goroutine that drives the workload to its thread, so the
// difference of two readings is the CPU time that goroutine used between
// them, including its garbage-collection assists. Time the hypervisor
// withholds the CPU (steal) is not in it, unlike wall time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// cpuTime is the process's user plus system CPU time so far, over every
// thread, so it includes garbage collection on other cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

package perfbench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity() (m cpuMask, ok bool) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(m *cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

// spreadThreads puts the n OS threads that are running Go code right now on
// n different CPUs, then gives them their full affinity mask back.
func spreadThreads(n int) {
	full, ok := getAffinity()
	if !ok {
		return
	}
	var cpus []int
	for c := 0; c < len(full)*64 && len(cpus) < n; c++ {
		if full[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < n {
		return
	}
	var arrived atomic.Int32
	var wg sync.WaitGroup
	for _, cpu := range cpus {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var one cpuMask
			one[cpu/64] = 1 << (cpu % 64)
			setAffinity(&one)
			arrived.Add(1)
			for t := time.Now(); arrived.Load() < int32(n) && time.Since(t) < 10*time.Millisecond; {
			}
			setAffinity(&full)
		}(cpu)
	}
	wg.Wait()
}

//go:build !linux

package perfbench

// spreadThreads is a no-op where thread affinity is not available.
func spreadThreads(int) {}

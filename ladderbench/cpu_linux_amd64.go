package main

import (
	"syscall"
	"unsafe"
)

// cpuOf is the CPU the calling thread is running on.
func cpuOf() int {
	const sysGetcpu = 309
	var cpu uint32
	if _, _, e := syscall.RawSyscall(sysGetcpu, uintptr(unsafe.Pointer(&cpu)), 0, 0); e != 0 {
		return -1
	}
	return int(cpu)
}

//go:build !(linux && amd64)

package main

// cpuOf reports -1: the CPU of a thread is known on linux/amd64 only.
func cpuOf() int { return -1 }

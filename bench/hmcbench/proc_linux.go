package main

import "syscall"

// childAttr asks the kernel to kill a child when this process dies,
// so no server outlives a benchmark that was killed outright.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

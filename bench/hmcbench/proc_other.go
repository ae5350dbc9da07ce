//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal off Linux; the timeout, signal
// and deferred kills still stop every child.
func childAttr() *syscall.SysProcAttr { return nil }

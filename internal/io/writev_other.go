//go:build !linux

package io

// Std syscall exports no raw writev outside linux (and no Iovec at all on
// some GOOS), so here the inline first attempt always misses and every
// write takes the waiter path. `make cross-build` keeps this file honest.
const haveRawWritev = false

type iovecs struct{}

func (*iovecs) writev(fd uintptr, bufs [][]byte) int { return 0 }

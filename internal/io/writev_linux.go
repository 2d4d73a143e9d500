//go:build linux

package io

import (
	"syscall"
	"unsafe"
)

// haveRawWritev gates taking a syscall.RawConn per Conn: without a raw
// writev the inline first attempt (Conn.tryWritev) can only miss.
const haveRawWritev = true

// iovMax is the kernel's per-call iovec limit (IOV_MAX). A longer vector
// is written up to it; the short write sends the rest to the waiter.
const iovMax = 1024

// iovecs is a Conn's scratch for the inline write attempt. It exists
// because the portable spellings allocate: syscall.SendmsgBuffers builds
// its iovec slice per call and net.Buffers.WriteTo reaches the poller's
// waitWrite on EAGAIN. Used only under Conn.wrTurn.
type iovecs []syscall.Iovec

// writev issues one non-blocking writev(2) of bufs on fd and reports the
// bytes written; zero for EAGAIN and for every other error, which the
// waiter's net.Buffers.WriteTo then reproduces with net's own value.
func (v *iovecs) writev(fd uintptr, bufs [][]byte) int {
	iov := (*v)[:0]
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		if len(iov) == iovMax {
			break
		}
		iov = append(iov, syscall.Iovec{Base: &b[0]})
		iov[len(iov)-1].SetLen(len(b))
	}
	*v = iov
	if len(iov) == 0 {
		return 0
	}
	var n uintptr
	var errno syscall.Errno
	for {
		n, _, errno = syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		if errno != syscall.EINTR {
			break
		}
	}
	clear(iov) // the scratch must not pin the caller's buffers
	if errno != 0 {
		return 0
	}
	return int(n)
}

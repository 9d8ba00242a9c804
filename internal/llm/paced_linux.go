package llm

import (
	"context"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Now's monotonic
// reading and the runtime's timers run on; package syscall does not name it.
const clockMonotonic = 1

// itimerspec is struct itimerspec: the layout follows syscall.Timespec, so
// 386 and arm pass their 32-bit fields and the 64-bit ports theirs.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// sleep waits d (> 0) on a one-shot timerfd the netpoller watches: the
// fd turns readable when d has passed, and epoll_wait returns then, not at
// the next whole millisecond a runtime timer is rounded to in an idle
// process. One fd per sleep, closed before returning, so no expiry of an
// earlier sleep can end a later one. Where the fd cannot be made, armed
// or read, the rest of d is waited on timerSleep.
func sleep(ctx context.Context, d time.Duration) error {
	start := time.Now()
	f := timerfd(d)
	if f == nil {
		return timerSleep(ctx, d)
	}
	defer f.Close()
	// A past deadline wakes the Read; it can only fail once the sleep has
	// returned and closed f.
	stop := context.AfterFunc(ctx, func() { _ = f.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()
	var expirations [8]byte
	_, err := f.Read(expirations[:])
	if err := ctx.Err(); err != nil {
		// The call was already billed; the caller just stopped waiting.
		return err
	}
	if err != nil {
		return timerSleep(ctx, d-time.Since(start))
	}
	return nil
}

// timerfd returns a non-blocking CLOCK_MONOTONIC timerfd armed to fire
// once after d, or nil when the kernel refuses one.
func timerfd(d time.Duration) *os.File {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil
	}
	return os.NewFile(fd, "timerfd")
}

package main

import (
	"syscall"
	"time"
)

// sleepUntil returns at the instant at, to within microseconds. The Go
// runtime's timers wake through epoll_wait, whose timeout is whole
// milliseconds: time.Sleep overshoots by about half a millisecond on an idle
// process, which would be half of a release-to-ack median. So the dispatcher
// sleeps in nanosleep(2) to just short of the instant and spins the rest.
func sleepUntil(at time.Time) {
	const spin = 200 * time.Microsecond
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		if d > spin {
			ts := syscall.NsecToTimespec(int64(d - spin))
			syscall.Nanosleep(&ts, nil) // an early return only re-enters the loop
		}
	}
}

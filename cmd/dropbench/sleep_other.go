//go:build !linux

package main

import "time"

// sleepUntil is the portable stand-in for the linux nanosleep version: it is
// millisecond-coarse, so the generator-lag gate may trip off linux.
func sleepUntil(at time.Time) {
	if d := time.Until(at); d > 0 {
		time.Sleep(d)
	}
}

// Package gctest checks that shutting a component down leaves what it held
// collectable: a closed server that stays reachable — through a goroutine
// that never exits, a registry it forgot to leave, a sync.Pool the runtime
// still tracks — keeps its whole store on the heap.
package gctest

import (
	"runtime"
	"testing"
	"time"
)

// Collected fails t unless the value build returns is unreachable after one
// garbage collection. build constructs the value and everything that hangs
// off it, exercises it, shuts it down and returns the pointer to watch; it
// must leave no reference of its own behind (no t.Cleanup closure, no
// goroutine). The pointer must be one runtime.SetFinalizer accepts — the
// start of its allocation — and have no finalizer yet.
func Collected[T any](t testing.TB, build func() *T) {
	t.Helper()
	finalized := make(chan struct{})
	watch(build, finalized)
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(time.Second):
		t.Fatalf("%T is still reachable after shutdown and one runtime.GC()", (*T)(nil))
	}
}

// watch is its own frame so that no stack slot of Collected holds the
// pointer while the collection runs.
//
//go:noinline
func watch[T any](build func() *T, finalized chan struct{}) {
	runtime.SetFinalizer(build(), func(*T) { close(finalized) })
}

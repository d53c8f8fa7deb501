package journal_test

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
)

// TestCompatDatadirsBootstrapFollower: a primary opened on each
// parent-written data directory ships its snapshot file as it lies on disk
// — DZSNAP2 or DZSNAP3 — and the WAL after it; a fresh follower must come
// out at the dump, generation and sequence the parent recorded, and so must
// a restart from the directory that follower wrote.
func TestCompatDatadirsBootstrapFollower(t *testing.T) {
	newStore := func() *registry.Store {
		return registry.NewStoreWithShards(simtime.NewSimClock(time.Date(2018, 1, 8, 0, 0, 0, 0, time.UTC)), 4)
	}
	for name, want := range journal.ReadCompatGolden(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			journal.CopyTree(t, filepath.Join("testdata", name), dir)
			jnl, _, err := journal.Open(newStore(), journal.Options{Dir: dir, Mode: journal.ModeSync})
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			src := repl.NewSource(jnl, repl.SourceConfig{})
			defer src.Close()

			check := func(what string, s *registry.Store, seq uint64) {
				t.Helper()
				if got := journal.DumpDigest(s); got != want.Digest || s.Generation() != want.Gen || seq != want.LastSeq {
					t.Errorf("%s: dump %s generation %d seq %d, parent %s generation %d seq %d",
						what, got, s.Generation(), seq, want.Digest, want.Gen, want.LastSeq)
				}
			}
			fdir := t.TempDir()
			fstore := newStore()
			f, err := repl.NewFollower(fstore, repl.FollowerConfig{Dir: fdir, Dial: func() (net.Conn, error) {
				client, server := net.Pipe()
				src.ServeConn(server)
				return client, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			for deadline := time.Now().Add(10 * time.Second); f.AppliedSeq() < want.LastSeq; time.Sleep(time.Millisecond) {
				if err := f.Err(); err != nil || time.Now().After(deadline) {
					t.Fatalf("follower at seq %d of %d: %v", f.AppliedSeq(), want.LastSeq, err)
				}
			}
			if m := f.Metrics(); m.Snapshots != 1 {
				t.Errorf("follower installed %d snapshots, want the shipped one", m.Snapshots)
			}
			check("bootstrapped follower", fstore, f.AppliedSeq())
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			restarted := newStore()
			_, last, err := journal.Replay(restarted, fdir)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("restart from the follower's copy of %s", want.Magic), restarted, last)
		})
	}
}

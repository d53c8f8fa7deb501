package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

var testStart = simtime.Day{Year: 2018, Month: time.January, Dom: 8}

// newTestStore returns an empty store on a simulated clock.
func newTestStore() *registry.Store {
	return registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
}

// workout drives store through a deterministic mix of every journaled
// mutation kind — registrar adds, seeds, creates, touches, renews,
// transfers, lifecycle transitions and Drop purges — and returns the names
// it registered.
func workout(t *testing.T, s *registry.Store, seed int64, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < 5; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 900 + r, Name: fmt.Sprintf("Reg %d", r)})
	}
	now := testStart.At(9, 0, 0)
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("jt%04d.com", i)
		sponsor := 900 + rng.Intn(5)
		if i%5 == 0 {
			if _, err := s.SeedAt(name, sponsor, now.AddDate(-2, 0, 0), now.AddDate(0, 0, -33), now.AddDate(0, 0, -68),
				model.StatusPendingDelete, testStart.AddDays(1+rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.CreateAt(name, sponsor, 1+rng.Intn(3), now.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
		switch rng.Intn(4) {
		case 0:
			pick := names[rng.Intn(len(names))]
			s.TouchAt(pick, 900+rng.Intn(5), now.Add(time.Duration(i)*time.Second))
		case 1:
			pick := names[rng.Intn(len(names))]
			s.Renew(pick, 900+rng.Intn(5), 1)
		case 2:
			pick := names[rng.Intn(len(names))]
			if d, err := s.Get(pick); err == nil {
				if code, err := s.AuthInfo(pick, d.RegistrarID); err == nil {
					s.Transfer(pick, 900+rng.Intn(5), code)
				}
			}
		case 3:
			pick := names[rng.Intn(len(names))]
			s.MarkPendingDelete(pick, now.Add(time.Duration(i)*time.Second), testStart.AddDays(1+rng.Intn(3)))
		}
	}
	// Run a Drop so the archive and purge records are exercised too.
	runner := registry.NewDropRunner(s, registry.DefaultDropConfig())
	for di := 1; di <= 3; di++ {
		if _, err := runner.Run(testStart.AddDays(di), rand.New(rand.NewSource(seed+int64(di)))); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// dumpVisible renders everything the store exposes through its public API
// as a canonical string, for comparing an original store against its
// recovered twin.
func dumpVisible(s *registry.Store) string {
	var b strings.Builder
	ts := func(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
	regs := s.Registrars()
	sort.Slice(regs, func(i, j int) bool { return regs[i].IANAID < regs[j].IANAID })
	for _, r := range regs {
		fmt.Fprintf(&b, "registrar %d %q %q\n", r.IANAID, r.Name, r.Service)
	}
	var ds []model.Domain
	s.Each(func(d *model.Domain) bool { ds = append(ds, *d); return true })
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	for _, d := range ds {
		auth, _ := s.AuthInfo(d.Name, d.RegistrarID)
		fmt.Fprintf(&b, "domain %s id=%d reg=%d created=%s updated=%s expiry=%s status=%s due=%v auth=%q\n",
			d.Name, d.ID, d.RegistrarID, ts(d.Created), ts(d.Updated), ts(d.Expiry), d.Status, d.DeleteDay, auth)
	}
	for di := 0; di < 10; di++ {
		day := testStart.AddDays(di)
		for _, ev := range s.Deletions(day) {
			fmt.Fprintf(&b, "deletion %v rank=%d id=%d %s at=%s\n", day, ev.Rank(), ev.DomainID(), ev.Name(), ts(ev.Time()))
		}
	}
	fmt.Fprintf(&b, "count=%d gen=%d\n", s.Count(), s.Generation())
	return b.String()
}

func openJournal(t *testing.T, s *registry.Store, dir string, mode Mode, keepAll bool) (*Journal, Recovery) {
	t.Helper()
	j, rec, err := Open(s, Options{Dir: dir, Mode: mode, KeepAll: keepAll})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return j, rec
}

// TestRecoverRoundTrip: a journaled workout closed cleanly must recover
// into an identical store, in both durability modes.
func TestRecoverRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore()
			j, rec := openJournal(t, s, dir, mode, false)
			if !rec.Fresh() {
				t.Fatalf("empty dir not reported fresh: %+v", rec)
			}
			s.SetJournal(j)
			workout(t, s, 1, 200)
			want := dumpVisible(s)
			if err := j.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			s2 := newTestStore()
			j2, rec2 := openJournal(t, s2, dir, mode, false)
			defer j2.Close()
			if rec2.Fresh() || rec2.ReplayedRecords == 0 {
				t.Fatalf("recovery saw no records: %+v", rec2)
			}
			if got := dumpVisible(s2); got != want {
				t.Errorf("recovered store differs from original (mode %v)", mode)
			}
			if j2.Metrics().RecoveryReplayedRecords == 0 {
				t.Error("metrics do not report replayed records")
			}
		})
	}
}

// TestRecoverAfterSnapshot: recovery composes the newest snapshot with the
// WAL tail, and pruning leaves exactly the files that composition needs.
func TestRecoverAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	workout(t, s, 2, 150)
	if err := j.Snapshot([]byte("app-state-blob")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// More traffic after the snapshot becomes the WAL tail.
	for i := 0; i < 40; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("tail%03d.com", i), 900, 1, testStart.At(12, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestStore()
	j2, rec := openJournal(t, s2, dir, ModeSync, false)
	defer j2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("recovery did not load the snapshot")
	}
	if string(rec.AppState) != "app-state-blob" {
		t.Fatalf("app state blob corrupted: %q", rec.AppState)
	}
	if rec.ReplayedRecords != 40 {
		t.Fatalf("replayed %d records, want exactly the 40-record tail", rec.ReplayedRecords)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("snapshot+tail recovery differs from original")
	}
}

// TestSnapshotBytesDeterministic: a shard hands its registrations to the
// snapshot writer in slot order, and slots are assigned by the operation
// history alone — so the same history on a fresh store yields the same
// snapshot file, byte for byte. Purges and re-creates in between make sure
// the free list takes part.
func TestSnapshotBytesDeterministic(t *testing.T) {
	run := func() []byte {
		dir := t.TempDir()
		s := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), 4)
		j, _ := openJournal(t, s, dir, ModeAsync, false)
		defer j.Close()
		s.SetJournal(j)
		s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg 0"})
		s.AddRegistrar(model.Registrar{IANAID: 901, Name: "Reg 1"})
		const n = 20_000
		now := testStart.At(9, 0, 0)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("det%05d.com", i)
			if _, err := s.CreateAt(name, 900+i%2, 1+i%3, now.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := s.MarkPendingDelete(name, time.Time{}, testStart.AddDays(1+i%4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Two Drops purge half of the pending-delete names; some of them
		// come back, and with them a few names never seen before.
		runner := registry.NewDropRunner(s, registry.DefaultDropConfig())
		purged := 0
		for di := 1; di <= 2; di++ {
			evs, err := runner.Run(testStart.AddDays(di), rand.New(rand.NewSource(int64(di))))
			if err != nil {
				t.Fatal(err)
			}
			purged += len(evs)
			for k, ev := range evs {
				if k%7 == 0 {
					if _, err := s.CreateAt(ev.Name(), 901, 1, ev.Time().Add(time.Second)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 50; k++ {
				if _, err := s.CreateAt(fmt.Sprintf("new%d-%03d.net", di, k), 900, 1, testStart.AddDays(di).At(20, 0, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if purged < n/8 {
			t.Fatalf("only %d purges: the free list was barely exercised", purged)
		}
		if err := j.Snapshot([]byte("app")); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshot files %v, %v", snaps, err)
		}
		b, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of one history wrote different snapshots (%d and %d bytes)", len(first), len(second))
	}
}

// TestRecoverTornTail: garbage after the last complete record — the
// signature of a crash mid-write — is truncated away and recovery succeeds
// with everything before it.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	workout(t, s, 3, 120)
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0xff, 0xfe, 0x00, 0x07})
	f.Close()

	s2 := newTestStore()
	j2, rec := openJournal(t, s2, dir, ModeSync, false)
	if rec.TornBytes == 0 {
		t.Error("torn tail not reported")
	}
	if got := dumpVisible(s2); got != want {
		t.Error("recovery with torn tail differs from original")
	}
	// The truncated log must accept appends and recover again.
	s2.SetJournal(j2)
	if _, err := s2.CreateAt("after-torn.com", 900, 1, testStart.At(15, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestStore()
	j3, _ := openJournal(t, s3, dir, ModeSync, false)
	defer j3.Close()
	if _, err := s3.Get("after-torn.com"); err != nil {
		t.Errorf("record appended after torn-tail recovery lost: %v", err)
	}
}

// TestRecoverCorruptionFailsLoudly: a flipped byte in the interior of the
// log (not its tail) must fail recovery, not silently drop records.
func TestRecoverCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	workout(t, s, 4, 150)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	// Add a later segment so the corrupted one is not the last: interior
	// damage is corruption, not a crash artefact.
	if err := os.WriteFile(filepath.Join(dir, segName(1<<40)), nil, 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore()
	if _, _, err := Open(s2, Options{Dir: dir, Mode: ModeSync}); err == nil {
		t.Fatal("recovery of interior corruption succeeded; want loud failure")
	}
}

// TestCrashCopyRecovery: for crash points throughout the log, recovery of
// the manufactured crash directory must equal a replay of exactly the
// records the crash preserved.
func TestCrashCopyRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, true)
	s.SetJournal(j)
	workout(t, s, 5, 120)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("post%03d.com", i), 901, 1, testStart.At(13, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	lastSeq := j.LastSeq()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := Scan(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(6))
	cuts := []uint64{1, lastSeq / 2, lastSeq - 1, lastSeq}
	for i := 0; i < 4; i++ {
		cuts = append(cuts, 1+uint64(rng.Intn(int(lastSeq))))
	}
	for ci, cut := range cuts {
		crashDir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", ci))
		if err := CrashCopy(dir, crashDir, cut, ci%2*7); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := newTestStore()
		jc, rec, err := Open(got, Options{Dir: crashDir, Mode: ModeSync})
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		jc.Close()
		if jc.LastSeq() != cut {
			t.Errorf("cut %d: recovered to seq %d", cut, jc.LastSeq())
		}
		want := newTestStore()
		for _, r := range orig {
			if r.Seq > cut {
				break
			}
			if r.Mutation != nil {
				if err := want.Apply(*r.Mutation); err != nil {
					t.Fatalf("cut %d: reference replay: %v", cut, err)
				}
			}
		}
		if dumpVisible(got) != dumpVisible(want) {
			t.Errorf("cut %d: recovered state differs from prefix replay (snapshot seq %d, replayed %d)",
				cut, rec.SnapshotSeq, rec.ReplayedRecords)
		}
	}
}

// TestRotationNamesSegmentAtDurableBoundary: records appended during a
// flush's unlocked IO window land in the *next* segment, so a rotated
// segment must be named after the durable boundary (durable+1), not the
// latest assigned sequence (seq+1). Regression test: the seq+1 name claimed
// a later first sequence than the segment held and failed scanFrames's
// contiguity check on the next recovery, making durable data unrecoverable.
func TestRotationNamesSegmentAtDurableBoundary(t *testing.T) {
	dir := t.TempDir()
	w, err := newWAL(dir, 0, 1, time.Hour, 1, false) // 1-byte segments: every flush rotates
	if err != nil {
		t.Fatal(err)
	}
	w.append(recApp, []byte("one"))
	w.testHookMidFlush = func() {
		w.testHookMidFlush = nil
		w.append(recApp, []byte("two")) // buffered while record 1's flush IO runs
	}
	if err := w.waitDurable(1); err != nil {
		t.Fatal(err)
	}
	if err := w.waitDurable(2); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	records := 0
	res, err := scanFrames(dir, 0, func(frame) error { records++; return nil })
	if err != nil {
		t.Fatalf("recovery scan after mid-flush append: %v", err)
	}
	if res.lastSeq != 2 || records != 2 {
		t.Fatalf("recovered lastSeq=%d with %d records, want 2 and 2", res.lastSeq, records)
	}
	if res.tornFile != "" {
		t.Fatalf("unexpected torn tail reported in %s", res.tornFile)
	}
}

// TestReopenAfterSnapshotAheadOfLog: an async-mode crash can lose buffered
// WAL records a snapshot already covered, leaving the durable log tail
// behind the snapshot. The first reopen recovers from the snapshot and
// starts a fresh segment at snapshot-seq+1; the *second* reopen must
// tolerate the resulting gap between the stale tail segment and the new one
// — every missing record is covered by the snapshot — instead of failing
// the contiguity check and bricking recovery.
func TestReopenAfterSnapshotAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, true)
	s.SetJournal(j)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg"})
	for i := 0; i < 6; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("ahead%d.com", i), 900, 1, testStart.At(9, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	snapSeq := j.LastSeq()
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Manufacture the crash: truncate the segment so the durable log ends
	// three records before the snapshot.
	segs, _, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(frameBoundary(data, snapSeq-3))); err != nil {
		t.Fatal(err)
	}

	// First reopen: the snapshot is ahead of the log tail; it is the state
	// of record and the sequence continues from it.
	s2 := newTestStore()
	j2, rec2 := openJournal(t, s2, dir, ModeSync, false)
	if rec2.SnapshotSeq != snapSeq {
		t.Fatalf("recovered snapshot seq %d, want %d", rec2.SnapshotSeq, snapSeq)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("first reopen differs from snapshot state")
	}
	s2.SetJournal(j2)
	if _, err := s2.CreateAt("after-gap.com", 900, 1, testStart.At(12, 0, 0)); err != nil {
		t.Fatal(err)
	}
	want2 := dumpVisible(s2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen: the stale tail segment still ends below the snapshot
	// seq and the next segment starts at snapshot-seq+1; recovery must
	// stitch across the snapshot-covered gap.
	s3 := newTestStore()
	j3, _ := openJournal(t, s3, dir, ModeSync, false)
	defer j3.Close()
	if got := dumpVisible(s3); got != want2 {
		t.Error("second reopen after snapshot-covered gap differs")
	}
}

// TestErrSurfacesWALFailure: async mode acknowledges appends that will
// never become durable once the WAL trips; Err must expose the sticky
// failure so long-running callers can detect it before Close.
func TestErrSurfacesWALFailure(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeAsync, false)
	s.SetJournal(j)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg"})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("healthy journal reports error: %v", err)
	}
	// Poison the log: close the segment file out from under the WAL so the
	// next flush fails the way a disk error would.
	j.w.mu.Lock()
	j.w.f.Close()
	j.w.mu.Unlock()
	if _, err := s.CreateAt("poison.com", 900, 1, testStart.At(9, 0, 0)); err != nil {
		t.Fatalf("async append must still acknowledge: %v", err)
	}
	if err := j.Sync(); err == nil {
		t.Error("Sync succeeded on a poisoned WAL")
	}
	if err := j.Err(); err == nil {
		t.Fatal("Err() returned nil after a WAL IO failure")
	}
	j.Close()
}

// TestSnapshotUnderSustainedWrites: with a writer hammering the store,
// Snapshot must still land (its writers wait for the one capture) and the
// WAL position it records must be exactly the image's last record, so
// recovery composes the snapshot with the WAL tail into the original store.
func TestSnapshotUnderSustainedWrites(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg"})
	for i := 0; i < 32; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("load%02d.com", i), 900, 1, testStart.At(9, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.TouchAt(fmt.Sprintf("load%02d.com", i%32), 900, testStart.At(10, 0, i%60))
		}
	}()
	for i := 0; i < 3; i++ {
		if err := j.Snapshot(nil); err != nil {
			t.Fatalf("snapshot %d under sustained writes: %v", i, err)
		}
	}
	close(stop)
	<-done
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore()
	j2, rec := openJournal(t, s2, dir, ModeSync, false)
	defer j2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("no snapshot recovered")
	}
	if got := dumpVisible(s2); got != want {
		t.Error("recovery after under-load snapshot differs from original")
	}
}

// TestMutationCodecRoundTrip: every field of every kind survives the binary
// codec, including the zero-time sentinels.
func TestMutationCodecRoundTrip(t *testing.T) {
	when := time.Date(2018, time.February, 11, 19, 0, 31, 0, time.UTC)
	muts := []registry.Mutation{
		{Kind: registry.MutAddRegistrar, Registrar: model.Registrar{
			IANAID: 1337, Name: "Reg & Co", Service: "svc",
			Contact: model.Contact{Email: "ops@reg.example", Phone: "+1.5551212"},
		}},
		{Kind: registry.MutCreate, ID: 42, Name: "drop.com", RegistrarID: 99,
			Created: when, Updated: when.Add(time.Second), Expiry: when.AddDate(1, 0, 0)},
		{Kind: registry.MutSeed, ID: 7, Name: "seed.net", RegistrarID: 3,
			Created: when.AddDate(-4, 0, 0), Updated: when, Expiry: when.AddDate(0, 0, -40),
			Status: model.StatusPendingDelete, DeleteDay: simtime.Day{Year: 2018, Month: time.March, Dom: 1}},
		{Kind: registry.MutTouch, Name: "t.com", Updated: when},
		{Kind: registry.MutRenew, Name: "r.com", Updated: when, Expiry: when.AddDate(2, 0, 0)},
		{Kind: registry.MutTransfer, Name: "x.com", RegistrarID: 12, Updated: when},
		{Kind: registry.MutSetState, Name: "s.com", Status: model.StatusRedemption, DeleteDay: simtime.Day{}},
		{Kind: registry.MutSetState, Name: "keep.com", Status: model.StatusAutoRenew},
		{Kind: registry.MutPurge, ID: 9001, Name: "gone.com", Time: when, Rank: 814},
	}
	for i, m := range muts {
		b, err := appendMutation(nil, &m)
		if err != nil {
			t.Fatalf("mutation %d: encode: %v", i, err)
		}
		var got registry.Mutation
		if err := decodeMutation(b, &got); err != nil {
			t.Fatalf("mutation %d: decode: %v", i, err)
		}
		if got.Kind != m.Kind || got.Name != m.Name || got.ID != m.ID || got.RegistrarID != m.RegistrarID ||
			!got.Created.Equal(m.Created) || !got.Updated.Equal(m.Updated) || !got.Expiry.Equal(m.Expiry) ||
			got.Status != m.Status || got.DeleteDay != m.DeleteDay || !got.Time.Equal(m.Time) ||
			got.Rank != m.Rank || got.Registrar != m.Registrar {
			t.Errorf("mutation %d (%v) did not round-trip:\n in: %+v\nout: %+v", i, m.Kind, m, got)
		}
		if m.Updated.IsZero() != got.Updated.IsZero() {
			t.Errorf("mutation %d: zero-time sentinel lost", i)
		}
	}
}

// TestSegmentRotation: a tiny segment limit forces rotation; recovery must
// stitch the segments back together seamlessly.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _, err := Open(s, Options{Dir: dir, Mode: ModeSync, segmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)
	workout(t, s, 7, 150)
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments at a 2 KiB limit, got %d", len(segs))
	}
	s2 := newTestStore()
	j2, _ := openJournal(t, s2, dir, ModeSync, false)
	defer j2.Close()
	if got := dumpVisible(s2); got != want {
		t.Error("multi-segment recovery differs from original")
	}
}

// TestGroupCommitCoalesces: appends buffered while no flush is in flight
// must share one fsync. Asserted against the raw WAL with the flush
// deferred until all records are buffered, so the result does not depend
// on scheduler overlap (which -race serialises away).
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	w, err := newWAL(dir, 0, 1<<20, time.Hour, 64<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var seq uint64
	for i := 0; i < n; i++ {
		seq, _ = w.append(recApp, []byte(fmt.Sprintf("rec-%02d", i)))
	}
	if err := w.waitDurable(seq); err != nil {
		t.Fatal(err)
	}
	if got := w.fsyncs.Load(); got != 1 {
		t.Errorf("%d buffered appends took %d fsyncs, want one group commit", n, got)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	records, err := Scan(dir, 0)
	if err != nil || len(records) != n {
		t.Fatalf("recovered %d records (err %v), want %d", len(records), err, n)
	}
}

// TestConcurrentAppendGroupCommit: hammer the journal from many goroutines
// in sync mode and verify group commit coalesced the fsyncs and every
// record survived.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg"})

	const workers, per = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("cc-%d-%d.com", w, i)
				if _, err := s.CreateAt(name, 900, 1, testStart.At(10, w, i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// No fsync amplification: at worst one commit per record (under -race
	// the scheduler can serialise the workers completely, so a strict
	// coalescing bound here would be flaky — TestGroupCommitCoalesces
	// asserts coalescing deterministically against the raw WAL).
	fsyncs := j.Metrics().WALFsyncs
	if fsyncs == 0 || fsyncs > uint64(workers*per)+1 {
		t.Errorf("fsync amplification: %d fsyncs for %d records", fsyncs, workers*per)
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore()
	j2, rec := openJournal(t, s2, dir, ModeSync, false)
	defer j2.Close()
	if rec.ReplayedRecords != workers*per+1 {
		t.Errorf("replayed %d records, want %d", rec.ReplayedRecords, workers*per+1)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("concurrent-append recovery differs from original")
	}
}

package journal

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// walkedFrames returns the raw bytes of every frame scanFrames walks in dir,
// rebuilt from the frames' fields.
func walkedFrames(t *testing.T, dir string) (frames [][]byte) {
	t.Helper()
	if _, err := scanFrames(dir, 0, func(f frame) error {
		frames = append(frames, testFrame(f.seq, f.typ, f.body))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// tailLog writes a small log whose records spread over several segments —
// registry mutations of every size workout produces and two application
// records — and returns its directory, the raw bytes of every frame by
// sequence number as scanFrames walks them (index 0 unused) and the segment
// files that hold records, in order.
func tailLog(t *testing.T) (dir string, frames [][]byte, segs []string) {
	t.Helper()
	dir = t.TempDir()
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync, segmentBytes: 800})
	if err := j.AppendApp([]byte("first"))(); err != nil {
		t.Fatal(err)
	}
	workout(t, s, 61, 20)
	if err := j.AppendApp(bytes.Repeat([]byte("app"), 300))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	frames = append([][]byte{nil}, walkedFrames(t, dir)...)
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		} else if fi.Size() > 0 {
			segs = append(segs, name)
		}
	}
	if len(segs) < 4 || len(frames) < 40 {
		t.Fatalf("log of %d records in %d segments is too small to say anything", len(frames)-1, len(segs))
	}
	return dir, frames, segs
}

// TestTailReaderMatchesScan: TailReader reads the log in blocks through a
// moving durable horizon and scanFrames reads whole files, and both cut
// frames with nextFrame — so from any start position, under any batch budget
// and however the horizon advances, the reader must emit exactly the bytes
// the scan walks, batches spanning segment rotations included; and what is
// an error to one — a flipped bit, a segment cut short inside the horizon, a
// missing segment — is an error to the other.
func TestTailReaderMatchesScan(t *testing.T) {
	dir, frames, segs := tailLog(t)
	last := uint64(len(frames) - 1)
	total := len(bytes.Join(frames, nil))

	// drain reads from after to the end of the log under the given budget,
	// with the horizon either at the end from the start or advancing one
	// record at a time, checking each call's bounds on the way.
	drain := func(t *testing.T, dir string, after uint64, maxBytes int, stepwise bool) ([]byte, error) {
		t.Helper()
		r := NewTailReader(dir, after)
		defer r.Close()
		var got []byte
		durable := last
		if stepwise {
			durable = after
		}
		for {
			out, first, lastOut, err := r.Next([]byte("hdr"), durable, maxBytes)
			if err != nil {
				return got, err
			}
			out = out[len("hdr"):]
			if lastOut == 0 {
				if len(out) != 0 {
					t.Fatalf("after %d budget %d: %d bytes and no records", after, maxBytes, len(out))
				}
				if durable == last {
					return got, nil
				}
				durable++
				continue
			}
			if first != after+1 || lastOut < first || lastOut > durable || r.next != lastOut+1 {
				t.Fatalf("after %d budget %d horizon %d: emitted %d..%d, next %d", after, maxBytes, durable, first, lastOut, r.next)
			}
			if want := bytes.Join(frames[first:lastOut+1], nil); !bytes.Equal(out, want) {
				t.Fatalf("after %d budget %d: records %d..%d came out as %d bytes, the scan walks %d", after, maxBytes, first, lastOut, len(out), len(want))
			}
			if over := len(out) - len(frames[lastOut]); over >= maxBytes {
				t.Fatalf("after %d budget %d: %d bytes emitted before the last record was added", after, maxBytes, over)
			}
			if lastOut < durable && len(out) < maxBytes {
				t.Fatalf("after %d budget %d horizon %d: stopped at %d with %d bytes", after, maxBytes, durable, lastOut, len(out))
			}
			got = append(got, out...)
			after = lastOut
		}
	}

	// Every budget up to the whole log and one beyond it — past that a call
	// can only return everything, the batch spanning every rotation — and the
	// production one.
	budgets := []int{64 << 10}
	for b := 1; b <= total+1; b++ {
		budgets = append(budgets, b)
	}
	for _, maxBytes := range budgets {
		for _, stepwise := range []bool{false, true} {
			got, err := drain(t, dir, 0, maxBytes, stepwise)
			if err != nil {
				t.Fatalf("budget %d stepwise %v: %v", maxBytes, stepwise, err)
			}
			if len(got) != total {
				t.Fatalf("budget %d stepwise %v: %d bytes, the log holds %d", maxBytes, stepwise, len(got), total)
			}
		}
	}
	// Every start position, the last record and the end included.
	for after := uint64(0); after <= last; after++ {
		got, err := drain(t, dir, after, 700, false)
		if want := bytes.Join(frames[after+1:], nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("from %d: %d bytes (%v), want %d", after, len(got), err, len(want))
		}
	}
	damaged := func(t *testing.T, mangle func(dir string)) {
		t.Helper()
		bad := t.TempDir()
		copyTree(t, dir, bad)
		mangle(bad)
		if _, err := scanFrames(bad, 0, func(frame) error { return nil }); err == nil {
			t.Error("scanFrames walked the damaged log without error")
		}
		for _, maxBytes := range []int{1, 700, 64 << 10} {
			for _, stepwise := range []bool{false, true} {
				if got, err := drain(t, bad, 0, maxBytes, stepwise); err == nil {
					t.Errorf("budget %d stepwise %v: TailReader read %d bytes of the damaged log without error", maxBytes, stepwise, len(got))
				}
			}
		}
	}
	rewrite := func(path string, edit func([]byte) []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("flipped-crc-byte", func(t *testing.T) {
		damaged(t, func(bad string) {
			rewrite(filepath.Join(bad, segs[1]), func(data []byte) []byte { data[4] ^= 0x01; return data })
		})
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		damaged(t, func(bad string) {
			rewrite(filepath.Join(bad, segs[1]), func(data []byte) []byte { data[len(data)-1] ^= 0x80; return data })
		})
	})
	t.Run("final-frame-cut-short-inside-the-horizon", func(t *testing.T) {
		for _, cut := range []int{1, frameHeader + 2, frameHeader + payloadHeader} {
			damaged(t, func(bad string) {
				rewrite(filepath.Join(bad, segs[0]), func(data []byte) []byte { return data[:len(data)-cut] })
			})
		}
	})
	t.Run("gap-between-segments", func(t *testing.T) {
		damaged(t, func(bad string) {
			if err := os.Remove(filepath.Join(bad, segs[2])); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestTailReaderFrameLargerThanBlock: a record several read blocks long,
// between ordinary ones, comes out whole under any budget.
func TestTailReaderFrameLargerThanBlock(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(newTestStore(), Options{Dir: dir, Mode: ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{10, 5*tailBlock + 17, 10, tailBlock, 10} {
		if err := j.AppendApp(bytes.Repeat([]byte{'L'}, size))(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(walkedFrames(t, dir), nil)
	for _, maxBytes := range []int{1, tailBlock, 1 << 30} {
		r := NewTailReader(dir, 0)
		var got []byte
		for {
			out, _, last, err := r.Next(nil, 5, maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			if last == 0 {
				break
			}
			got = append(got, out...)
		}
		r.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("budget %d: %d bytes, the log holds %d", maxBytes, len(got), len(want))
		}
	}
}

// TestTailReaderFollowsLiveLog: against a writer that is appending and
// rotating, a reader woken per durable advance sees every record once, in
// order, byte-identical to what ends up on disk.
func TestTailReaderFollowsLiveLog(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := journaled(t, dir, 0, Options{Mode: ModeAsync, segmentBytes: 4 << 10, syncEvery: 7})
	watch, cancel := j.WatchDurable()
	defer cancel()
	const records = 600
	done := make(chan error, 1)
	go func() {
		for i := 0; i < records; i++ {
			if w := j.AppendApp([]byte(fmt.Sprintf("live-%04d-%s", i, bytes.Repeat([]byte{'x'}, i%90)))); w != nil {
				done <- fmt.Errorf("async append returned a waiter")
				return
			}
		}
		done <- j.Sync()
	}()
	r := NewTailReader(dir, 0)
	defer r.Close()
	var got []byte
	for r.next <= records {
		out, _, _, err := r.Next(nil, j.DurableSeq(), 3000)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, out...); len(out) == 0 {
			<-watch
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(walkedFrames(t, dir), nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("tailed %d bytes of a live log that holds %d", len(got), len(want))
	}
}

// TestAppendFramesContinuesTheLog: a follower's journal takes shipped frames
// only where they continue its log — a gap, an overlap or an inverted range
// is refused and leaves LastSeq where it was — and what it takes it keeps
// byte for byte: the follower's log walks to the primary's frames.
func TestAppendFramesContinuesTheLog(t *testing.T) {
	_, frames, _ := tailLog(t)
	n := uint64(len(frames) - 1)
	run := func(first, last uint64) []byte { return bytes.Join(frames[first:last+1], nil) }

	fdir := t.TempDir()
	j, _, err := Open(newTestStore(), Options{Dir: fdir, Mode: ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendFrames(run(1, 5), 1, 5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		first, last uint64
	}{{"gap", 7, 7}, {"overlap", 5, 6}, {"inverted", 6, 5}} {
		if err := j.AppendFrames(run(min(c.first, c.last), max(c.first, c.last)), c.first, c.last); err == nil || j.LastSeq() != 5 {
			t.Errorf("%s %d..%d after seq 5: err %v, LastSeq %d", c.name, c.first, c.last, err, j.LastSeq())
		}
	}
	if err := j.AppendFrames(run(6, n), 6, n); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := walkedFrames(t, fdir); !bytes.Equal(bytes.Join(got, nil), run(1, n)) {
		t.Fatalf("follower log walks to %d frames, not the primary's %d byte for byte", len(got), n)
	}
}

// TestInstallSnapshotRefusesNonEmptyLog: a snapshot bootstraps only an empty
// log — over one that holds records it is refused before the store or the
// directory changes — and an empty one restarts after the snapshot's seq.
func TestInstallSnapshotRefusesNonEmptyLog(t *testing.T) {
	dir := t.TempDir()
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync})
	workout(t, s, 5, 40)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	want := dumpVisible(s)
	j.Close()
	path, seq, _, err := LatestSnapshotPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	busyDir := t.TempDir()
	busy, bj, _ := journaled(t, busyDir, 0, Options{Mode: ModeSync})
	defer bj.Close()
	workout(t, busy, 6, 10)
	gen, files := busy.Generation(), readTree(t, busyDir)
	if _, err := bj.InstallSnapshot(raw); err == nil {
		t.Fatal("installed a snapshot over a log holding records")
	}
	if busy.Generation() != gen || !maps.Equal(readTree(t, busyDir), files) {
		t.Fatalf("refused install changed the store (generation %d → %d) or the directory", gen, busy.Generation())
	}

	fdir := t.TempDir()
	fs, fj, _ := journaled(t, fdir, 0, Options{Mode: ModeSync})
	defer fj.Close()
	if got, err := fj.InstallSnapshot(raw); err != nil || got != seq || fj.LastSeq() != seq {
		t.Fatalf("install: seq %d, LastSeq %d, %v; want %d", got, fj.LastSeq(), err, seq)
	}
	if dumpVisible(fs) != want {
		t.Error("installed store differs from the snapshotted one")
	}
	installed := readTree(t, fdir)
	if seg, ok := installed[segName(seq+1)]; len(installed) != 2 || installed[snapName(seq)] != string(raw) || !ok || seg != "" {
		t.Errorf("directory after install holds %d files, want the image as %s and an empty %s", len(installed), snapName(seq), segName(seq+1))
	}
}

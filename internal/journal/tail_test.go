package journal

import (
	"bytes"
	"fmt"
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
	s := newTestStore()
	j, _, err := Open(s, Options{Dir: dir, Mode: ModeSync, segmentBytes: 800})
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)
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
	s := newTestStore()
	j, _, err := Open(s, Options{Dir: dir, Mode: ModeAsync, segmentBytes: 4 << 10, syncEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)
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

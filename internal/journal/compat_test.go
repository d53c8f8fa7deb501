package journal

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/registry"
)

// The files under testdata/ were written by the last commit that still read
// every format (745e942): compat-v2/ and compat-v3/ are data directories — a
// DZSNAP2 snapshot of a default-only store, a DZSNAP3 snapshot of a two-zone
// store, each under a WAL whose tail adds a registrar, creates in every
// hosted TLD, a transfer and an application record — with compat.json
// holding what that commit recovered from them; dzsnap1.snap is a DZSNAP1
// gob image and gob-registrar.frame one WAL frame carrying MutAddRegistrar
// as wire kind 1. The first two must keep recovering to the recorded state;
// the last two must be refused by name.

// compatGolden is one data directory's entry in testdata/compat.json.
type compatGolden struct {
	Magic    string `json:"magic"`
	Digest   string `json:"dump_sha256"`
	Gen      uint64 `json:"generation"`
	LastSeq  uint64 `json:"last_seq"`
	SnapSeq  uint64 `json:"snapshot_seq"`
	AppState string `json:"app_state"`
	Count    int    `json:"count"`
}

func readCompatGolden(t *testing.T) map[string]compatGolden {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]compatGolden
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// readTree returns dir's files by name.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// copyTree copies src's files into the directory dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for name, data := range readTree(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(data), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

func dumpDigest(s *registry.Store) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(dumpVisible(s))))
}

// TestCompatDatadirsRecover: both parent-written data directories open, at
// one worker and at several and into other shard counts than wrote them, to
// the dump, generation and sequence the parent recorded — the DZSNAP2 file
// through the same parse and install as the DZSNAP3 one.
func TestCompatDatadirsRecover(t *testing.T) {
	for name, want := range readCompatGolden(t) {
		for _, parallelism := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallelism-%d", name, parallelism), func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, filepath.Join("testdata", name), dir)
				_, snap := latestSnapshotBytes(t, dir)
				if got := string(snap[:len(want.Magic)]); got != want.Magic {
					t.Fatalf("testdata snapshot has magic %q, want %q", got, want.Magic)
				}
				s, j, rec := journaled(t, dir, 1+2*parallelism, Options{Mode: ModeSync, RecoveryParallelism: parallelism})
				defer j.Close()
				if rec.SnapshotSeq != want.SnapSeq || string(rec.AppState) != want.AppState ||
					rec.ReplayedRecords != int(want.LastSeq-want.SnapSeq) || len(rec.AppRecords) != 1 {
					t.Errorf("recovery %+v, want snapshot %d (%q) and the tail to %d with one application record",
						rec, want.SnapSeq, want.AppState, want.LastSeq)
				}
				if got := dumpDigest(s); got != want.Digest || s.Generation() != want.Gen || j.LastSeq() != want.LastSeq || s.Count() != want.Count {
					t.Errorf("recovered dump %s generation %d seq %d count %d,\n     parent %s generation %d seq %d count %d",
						got, s.Generation(), j.LastSeq(), s.Count(), want.Digest, want.Gen, want.LastSeq, want.Count)
				}
			})
		}
	}
}

// compatHistory runs the history behind testdata/<name> against a fresh
// journal in dir, as the parent commit did when it wrote the directory: a
// workout, for compat-v3 a second zone and its first names, a snapshot, then
// the tail.
func compatHistory(t *testing.T, name, dir string) {
	t.Helper()
	s, j, _ := journaled(t, dir, 4, Options{Mode: ModeSync, RecoveryParallelism: 4})
	workout(t, s, 51, 60)
	tlds := []string{"com", "net"}
	if name == "compat-v3" {
		if err := s.AddZone(testNordic()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			for _, tld := range []string{"se", "nu"} {
				if _, err := s.CreateAt(fmt.Sprintf("fjord%02d.%s", i, tld), 900+i%5, 1, testStart.At(10, 0, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tlds = append(tlds, "se", "nu")
	}
	if err := j.Snapshot([]byte(name + "-app")); err != nil {
		t.Fatal(err)
	}
	s.AddRegistrar(model.Registrar{IANAID: 950, Name: "Tail Reg", Service: "https://tail.example"})
	for i := 0; i < 10; i++ {
		for _, tld := range tlds {
			if _, err := s.CreateAt(fmt.Sprintf("tail%02d.%s", i, tld), 950, 1, testStart.At(14, 0, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	code, err := s.AuthInfo("tail03.com", 950)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer("tail03.com", 901, code); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendApp([]byte("app-record"))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompatHistoryWritesParentBytes: the same history, journaled by this
// build, must put the parent's bytes on disk — the WAL segment whole, the
// two-zone snapshot whole, and of the default-only snapshot everything but
// the magic and the zone count the meta section now ends in.
func TestCompatHistoryWritesParentBytes(t *testing.T) {
	for name := range readCompatGolden(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			compatHistory(t, name, dir)
			parent, mine := readTree(t, filepath.Join("testdata", name)), readTree(t, dir)
			for file, want := range parent {
				got := mine[file]
				switch {
				case got == want:
				case name == "compat-v2" && strings.HasSuffix(file, ".snap"):
					old, err := parseSnapshotV2([]byte(want), file)
					if err != nil {
						t.Fatal(err)
					}
					cur, err := parseSnapshotV2([]byte(got), file)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want)+1 || got[:len(snapMagic)] != snapMagic || !reflect.DeepEqual(cur, old) {
						t.Errorf("%s: %d bytes under %q, parent %d; sections equal: %v",
							file, len(got), got[:len(snapMagic)-1], len(want), reflect.DeepEqual(cur, old))
					}
				default:
					t.Errorf("%s: wrote %d bytes that differ from the parent's %d", file, len(got), len(want))
				}
			}
		})
	}
}

// refused opens a data directory holding the given files and requires Open
// and Replay to fail with an error containing every one of wants, the store
// still empty and the directory as it was.
func refused(t *testing.T, files map[string][]byte, wants ...string) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	before := readTree(t, dir)
	for _, open := range []struct {
		name string
		run  func(*registry.Store) error
	}{
		{"Open", func(s *registry.Store) error {
			j, _, err := Open(s, Options{Dir: dir, Mode: ModeSync})
			if err == nil {
				j.Close()
			}
			return err
		}},
		{"Replay", func(s *registry.Store) error { _, _, err := Replay(s, dir); return err }},
	} {
		s := newShardedTestStore(4)
		err := open.run(s)
		if err == nil {
			t.Fatalf("%s succeeded", open.name)
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", open.name, err, want)
			}
		}
		if s.Count() != 0 || s.Generation() != 0 || len(s.Registrars()) != 0 {
			t.Errorf("%s: refused directory leaked into the store: count=%d gen=%d regs=%d", open.name, s.Count(), s.Generation(), len(s.Registrars()))
		}
		if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s modified the refused directory", open.name)
		}
	}
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRetiredFormatsRefusedByName: what this build no longer reads it says
// so about, before touching the store or the directory.
func TestRetiredFormatsRefusedByName(t *testing.T) {
	v1 := readTestdata(t, "dzsnap1.snap")
	frame := readTestdata(t, "gob-registrar.frame")

	t.Run("DZSNAP1", func(t *testing.T) {
		refused(t, map[string][]byte{snapName(77): v1}, snapName(77), "DZSNAP1", "gob")
		s := newShardedTestStore(4)
		if _, err := restoreShipped(s, v1, 0); !errors.Is(err, errSnapshotFormat) || s.Count() != 0 || s.Generation() != 0 {
			t.Errorf("shipped DZSNAP1 image: %v (store count %d)", err, s.Count())
		}
	})

	// A corrupt newest snapshot is a crash artefact to step over — but not
	// onto a file that cannot be read at all: what the older file and the WAL
	// since it hold is then unknowable, and recovery must say so instead of
	// reporting the corruption alone or opening empty.
	t.Run("corrupt-DZSNAP3-above-DZSNAP1", func(t *testing.T) {
		v3 := readTestdata(t, filepath.Join("compat-v3", snapName(148)))
		v3[len(v3)/2] ^= 0x01
		refused(t, map[string][]byte{snapName(77): v1, snapName(148): v3}, snapName(77), "DZSNAP1")
	})

	t.Run("gob-registrar-frame", func(t *testing.T) {
		if _, _, err := DecodeFrames(nil, frame, 1); !errors.Is(err, errGobRegistrar) {
			t.Errorf("DecodeFrames: %v, want errGobRegistrar", err)
		}
		// As the only record of the last segment it still is not a torn tail:
		// the frame is whole, it is its content that is refused.
		refused(t, map[string][]byte{segName(1): frame}, "seq 1", "gob", "wire kind 1")
	})
}

package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dropzero/internal/binwire"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// fuzzBase builds one pristine single-segment log and keeps its bytes and
// decoded records for every fuzz execution to mutate.
var fuzzBase struct {
	once    sync.Once
	err     error
	segName string
	segData []byte
	records []Record
}

func buildFuzzBase() {
	dir, err := os.MkdirTemp("", "dzfuzz")
	if err != nil {
		fuzzBase.err = err
		return
	}
	defer os.RemoveAll(dir)
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	s := registry.NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
	j, _, err := Open(s, Options{Dir: dir, Mode: ModeSync})
	if err != nil {
		fuzzBase.err = err
		return
	}
	s.SetJournal(j)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Fuzz Reg"})
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("fz%03d.com", i)
		if i%4 == 0 {
			_, err = s.SeedAt(name, 900, start.At(1, 0, i), start.At(2, 0, i), start.At(3, 0, i),
				model.StatusPendingDelete, start.AddDays(1))
		} else {
			_, err = s.CreateAt(name, 900, 1, start.At(4, 0, i))
		}
		if err != nil {
			fuzzBase.err = err
			return
		}
	}
	runner := registry.NewDropRunner(s, registry.DefaultDropConfig())
	if _, err := runner.Run(start.AddDays(1), rand.New(rand.NewSource(9))); err != nil {
		fuzzBase.err = err
		return
	}
	if err := j.Close(); err != nil {
		fuzzBase.err = err
		return
	}
	segs, _, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		fuzzBase.err = fmt.Errorf("want exactly one segment, got %d (%v)", len(segs), err)
		return
	}
	fuzzBase.segName = segs[0]
	if fuzzBase.segData, err = os.ReadFile(filepath.Join(dir, segs[0])); err != nil {
		fuzzBase.err = err
		return
	}
	fuzzBase.records, fuzzBase.err = Scan(dir, 0)
}

// FuzzWALReplay corrupts the log at arbitrary byte offsets — truncation,
// bit flips, garbage insertion — and asserts the recovery invariant: Open
// either fails loudly, or it succeeds and the recovered store is exactly a
// replay of the first LastSeq original records. There is no third outcome;
// in particular, corrupted bytes must never decode into state that differs
// from some true prefix of the history.
func FuzzWALReplay(f *testing.F) {
	f.Add(uint16(0), uint16(0), byte(0))
	f.Add(uint16(100), uint16(40), byte(0xff))
	f.Add(uint16(9999), uint16(3), byte(1))
	f.Add(uint16(8), uint16(0), byte(0x80))
	f.Fuzz(func(t *testing.T, off uint16, trunc uint16, flip byte) {
		fuzzBase.once.Do(buildFuzzBase)
		if fuzzBase.err != nil {
			t.Fatalf("building fuzz base: %v", fuzzBase.err)
		}

		data := append([]byte(nil), fuzzBase.segData...)
		if trunc > 0 {
			keep := len(data) - int(trunc)
			if keep < 0 {
				keep = 0
			}
			data = data[:keep]
		}
		if flip != 0 && len(data) > 0 {
			data[int(off)%len(data)] ^= flip
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fuzzBase.segName), data, 0o666); err != nil {
			t.Fatal(err)
		}
		s := newTestStore()
		j, _, err := Open(s, Options{Dir: dir, Mode: ModeSync})
		if err != nil {
			return // loud failure is an accepted outcome
		}
		defer j.Close()

		k := j.LastSeq()
		if k > uint64(len(fuzzBase.records)) {
			t.Fatalf("recovered %d records from a log that only ever held %d", k, len(fuzzBase.records))
		}
		if got, ref := dumpVisible(s), dumpVisible(replayPrefix(t, fuzzBase.records, k)); got != ref {
			t.Errorf("recovery loaded silently wrong state after corruption (recovered seq %d)", k)
		}
	})
}

// deletionEdges are object IDs, deletion instants and ranks at and just
// past the ends of what a 24-byte deletion event holds; fits marks the ones
// it holds. A snapshot's deletion section and a purge record carry all three
// as varints, so the bytes can say any of them.
var deletionEdges = []struct {
	name string
	id   uint64
	at   time.Time
	rank int
	fits bool
}{
	{"Unix -1", 42, time.Unix(-1, 0), 0, false},
	{"Unix 0", 42, time.Unix(0, 0), 0, true},
	{"2106-02-07T06:28:14Z", 42, time.Unix(1<<32-2, 0), 1<<32 - 1, true},
	{"one second past", 42, time.Unix(1<<32-1, 0), 0, false},
	{"a 999 ns fraction", 42, time.Unix(1515438003, 999), 0, false},
	{"the zero time", 42, time.Time{}, 7, true},
	{"rank -1", 42, time.Unix(1515438003, 0), -1, false},
	{"rank 1<<32", 42, time.Unix(1515438003, 0), 1 << 32, false},
	{"object ID 1<<32-1", 1<<32 - 1, time.Unix(1515438003, 0), 0, true},
	{"object ID 1<<32", 1 << 32, time.Unix(1515438003, 0), 0, false},
}

// rawDeletionSection is the body of a deletion section holding one event,
// field by field as appendDeletions writes it — for values no DeletionEvent
// can be built from.
func rawDeletionSection(id uint64, at time.Time, rank int) []byte {
	b := binary.AppendUvarint(nil, 1) // days
	b = binwire.AppendDay(b, simtime.DayOf(at))
	b = binary.AppendUvarint(b, 1) // events
	b = binary.AppendUvarint(b, id)
	b = binwire.AppendString(b, "gone.com")
	b = binwire.AppendString(b, "com")
	b = binwire.AppendTime(b, at)
	return binary.AppendVarint(b, int64(rank))
}

// testFrame frames one record the way wal.append does.
func testFrame(seq uint64, typ byte, body []byte) []byte {
	payload := append(binary.LittleEndian.AppendUint64(nil, seq), typ)
	payload = append(payload, body...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// FuzzFollowerFrames feeds DecodeFrames — the decoder a replication peer
// reaches over a socket — arbitrary batches. It must never panic, must accept
// exactly the inputs a frame-by-frame walk with nextFrame and decodeRecord
// accepts (at least one frame, sequence numbers chaining from first, no bytes
// left over), and on accept must report last − first + 1 records, the
// mutations among them decoded.
func FuzzFollowerFrames(f *testing.F) {
	at := time.Date(2018, 1, 8, 9, 0, 0, 0, time.UTC)
	body, err := appendMutation(nil, &registry.Mutation{Kind: registry.MutTouch, Name: "fz.com", Updated: at})
	if err != nil {
		f.Fatal(err)
	}
	good := testFrame(7, recMutation, body)
	withLength := func(ln uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, ln)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	f.Add([]byte{}, uint64(7))                                                          // empty
	f.Add(good, uint64(7))                                                              // one good frame
	f.Add(good[:5], uint64(7))                                                          // truncated header
	f.Add(append(withLength(payloadHeader-1), good[4:]...), uint64(7))                  // length < payloadHeader
	f.Add(append(withLength(maxRecordBytes+1), good[4:]...), uint64(7))                 // length > maxRecordBytes
	f.Add(flipped, uint64(7))                                                           // bad CRC
	f.Add(append(bytes.Clone(good), testFrame(9, recApp, []byte("x"))...), uint64(7))   // sequence gap
	f.Add(testFrame(7, 3, body), uint64(7))                                             // unknown record type
	f.Add(append(bytes.Clone(good), 0xff), uint64(7))                                   // trailing bytes
	f.Add(append(bytes.Clone(good), testFrame(8, recApp, []byte("app"))...), uint64(7)) // mutation then app record
	for _, e := range deletionEdges {                                                   // purges the replaying store accepts or refuses; the decoder takes them all
		purge, err := appendMutation(nil, &registry.Mutation{Kind: registry.MutPurge, Name: "fz.com", ID: 3, Time: e.at, Rank: e.rank})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(testFrame(7, recMutation, purge), uint64(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		ms, last, err := DecodeFrames(nil, data, first)

		ok, records, muts := len(data) > 0, uint64(0), 0
		for off := 0; ok && off < len(data); {
			fr, size, ferr := nextFrame(data[off:])
			if ferr != nil || fr.seq != first+records {
				ok = false
				break
			}
			var m registry.Mutation
			app, derr := decodeRecord(fr, &m)
			if derr != nil {
				ok = false
				break
			}
			if app == nil {
				muts++
			}
			records++
			off += size
		}
		if (err == nil) != ok {
			t.Fatalf("DecodeFrames error %v, frame-by-frame walk accepts: %v", err, ok)
		}
		if err == nil && (last-first+1 != records || len(ms) != muts) {
			t.Fatalf("accepted batch: %d..%d with %d mutations, walk found %d records with %d mutations", first, last, len(ms), records, muts)
		}
	})
}

// FuzzDecodeBodies feeds the four layout decoders — a mutation payload, the
// snapshot's meta, domain and deletion sections — bytes no CRC vouches for.
// They must return, not panic, whatever the counts inside claim, and a
// mutation they accept must survive a re-encode and decode unchanged.
func FuzzDecodeBodies(f *testing.F) {
	at := time.Date(2018, 1, 8, 9, 0, 0, 0, time.UTC)
	for _, m := range []registry.Mutation{
		{Kind: registry.MutTouch, Name: "fz.com", Updated: at},
		{Kind: registry.MutAddRegistrar, Registrar: model.Registrar{IANAID: 900, Name: "Fuzz Reg"}},
		{Kind: registry.MutAddZone, Zone: testNordic()},
	} {
		body, err := appendMutation(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	snapFuzzBase.once.Do(buildSnapFuzzBase)
	if snapFuzzBase.err != nil {
		f.Fatal(snapFuzzBase.err)
	}
	sv, err := parseSnapshotV2(snapFuzzBase.data, "base")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sv.domains[0])
	f.Add(sv.deletion[0])
	f.Add(appendMeta(nil, &sv.meta))
	f.Add([]byte{0x42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a zone of 2^32 TLDs
	for _, e := range deletionEdges {
		f.Add(rawDeletionSection(e.id, e.at, e.rank))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m registry.Mutation
		if err := decodeMutation(data, &m); err == nil {
			again, err := appendMutation(nil, &m)
			if err != nil {
				t.Fatal(err)
			}
			var m2 registry.Mutation
			if err := decodeMutation(again, &m2); err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("accepted mutation does not round-trip (%v):\n%+v\n%+v", err, m, m2)
			}
		}
		decodeMetaSection(data, true)
		decodeMetaSection(data, false)
		decodeDomainSection(data, func([]registry.SnapshotDomain) error { return nil })
		if dels, err := decodeDeletionsSection(data); err == nil {
			// Accepted events are held exactly: they re-encode to a section
			// that decodes to the same archive.
			again, err := decodeDeletionsSection(appendDeletions(nil, dels))
			if err != nil || !sameArchive(dels, again) {
				t.Fatalf("accepted deletion section does not round-trip (%v):\n%+v\n%+v", err, dels, again)
			}
		}
	})
}

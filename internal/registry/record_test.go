package registry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// TestRecordFitsOneSizeClass pins the stored form to 32 bytes and a table
// chunk to 32 KiB — an allocator size class with no rounding waste; one more
// word per record would cost 8 bytes per registration.
func TestRecordFitsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 32 {
		t.Fatalf("record is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof([chunkSize]record{}); size != 32<<10 {
		t.Fatalf("chunk is %d bytes, want 32 KiB", size)
	}
}

// FuzzRecordRoundTrip: every second-precision UTC model.Domain whose fields
// fit the stored widths survives record and back exactly, and everything
// else is refused — never rounded.
func FuzzRecordRoundTrip(f *testing.F) {
	const lastSec = int64(1)<<32 - 2 // 2106-02-07T06:28:14Z
	zeroSec := time.Time{}.Unix()
	label63 := strings.Repeat("t", 63)
	f.Add(uint64(1), "example", "com", int64(1000), int64(1500000000), int64(1510000000), int64(1530000000), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(1<<32-1), "zero-times", "net", int64(0), zeroSec, zeroSec, zeroSec, 0, uint8(3), 2018, 3, 8)
	f.Add(uint64(1<<32), "bigid", "net", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(7), "nordic", "se", int64(-5), int64(0), int64(1), lastSec, 0, uint8(4), 2018, 12, 31)
	f.Add(uint64(7), "past-the-end", "se", int64(5), int64(0), int64(1), lastSec+1, 0, uint8(4), 0, 0, 0)
	f.Add(uint64(7), "before-the-epoch", "se", int64(5), int64(-1), int64(0), int64(1), 0, uint8(4), 0, 0, 0)
	f.Add(uint64(8), "subsecond", "nu", int64(1), int64(1500000000), int64(1500000000), int64(1500000000), 1, uint8(1), 0, 0, 0)
	f.Add(uint64(9), "bigregistrar", "dk", int64(1)<<31, int64(5), int64(6), int64(7), 0, uint8(2), 0, 0, 0)
	f.Add(uint64(10), "badday", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(255), 1<<21, 13, 32)
	f.Add(uint64(10), "feb30", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(3), 2018, 2, 30)
	f.Add(uint64(10), "day0", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(3), 1970, 1, 1)
	f.Add(uint64(10), "day1", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(3), 1970, 1, 2)
	f.Add(uint64(10), "day65535", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(3), 2149, 6, 6)
	f.Add(uint64(10), "day65536", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(3), 2149, 6, 7)
	f.Add(uint64(11), "notld", "", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), -1, 1, 1)
	f.Add(uint64(12), "tld63", label63, int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(12), "tld64", label63+"t", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(13), "a", "b.com", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(14), strings.Repeat("n", 251), "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(14), strings.Repeat("n", 252), "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(0), 0, 0, 0)
	f.Add(uint64(15), "status63", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(63), 0, 0, 0)
	f.Add(uint64(15), "status64", "com", int64(3), int64(5), int64(6), int64(7), 0, uint8(64), 0, 0, 0)
	f.Fuzz(func(t *testing.T, id uint64, label, tld string, registrar, created, updated, expiry int64, nanos int, status uint8, year, month, dom int) {
		nanos = ((nanos % 1e9) + 1e9) % 1e9
		d := model.Domain{
			ID:          id,
			Name:        label + "." + tld,
			TLD:         model.TLD(tld),
			RegistrarID: int(registrar),
			Created:     time.Unix(created, 0).UTC(),
			Updated:     time.Unix(updated, int64(nanos)).UTC(),
			Expiry:      time.Unix(expiry, 0).UTC(),
			Status:      model.Status(status),
			DeleteDay:   simtime.Day{Year: year, Month: time.Month(month), Dom: dom},
		}
		secFits := func(sec int64) bool { return sec == zeroSec || sec >= 0 && sec <= lastSec }
		// A delete day fits when it is unset, or a calendar date (time.Date
		// leaves it as written) from 1970-01-02 to 2149-06-06.
		dayFits := d.DeleteDay == simtime.Day{}
		if year >= 1970 && year <= 2149 {
			at := time.Date(year, time.Month(month), dom, 0, 0, 0, 0, time.UTC)
			y, m, dd := at.Date()
			dayFits = dayFits || y == year && int(m) == month && dd == dom && at.Unix() >= 86400 && at.Unix() <= 65535*86400
		}
		// The TLD is the name's last label, and the name's length a byte.
		fits := id < 1<<32 && tld != "" && len(tld) <= 63 && !strings.Contains(tld, ".") &&
			len(d.Name) <= 255 && status < 64 &&
			nanos == 0 &&
			secFits(created) && secFits(updated) && secFits(expiry) &&
			registrar >= -1<<31 && registrar < 1<<31 &&
			dayFits
		r, err := newRecord(&d)
		if !fits {
			if !errors.Is(err, errUnrepresentable) {
				t.Fatalf("newRecord(%+v) = %v, want errUnrepresentable", d, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("newRecord(%+v): %v", d, err)
		}
		if got := r.domain(); got != d {
			t.Fatalf("round trip changed the registration:\n in  %+v\n out %+v", d, got)
		}
	})
}

// TestReplayRefusesUnrepresentable: replay input the record cannot hold
// exactly is an error and leaves the registration, and its index entry,
// as they were.
func TestReplayRefusesUnrepresentable(t *testing.T) {
	s, _ := testStore(t)
	at := time.Date(2018, 1, 8, 9, 0, 0, 0, time.UTC)
	seed := Mutation{Kind: MutSeed, ID: 1, Name: "exact.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)}
	if err := s.Apply(seed); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Get("exact.com")
	beforeDay, _ := bucketDayOf(s, "exact.com")

	sub := at.Add(time.Nanosecond)
	bad := []Mutation{
		{Kind: MutSeed, ID: 2, Name: "sub.com", RegistrarID: 1000, Created: sub, Updated: at, Expiry: at},
		{Kind: MutCreate, ID: 2, Name: "wide.com", RegistrarID: 1 << 40, Created: at, Updated: at, Expiry: at},
		{Kind: MutSeed, ID: 2, Name: "day.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at, DeleteDay: simtime.Day{Year: 2018, Month: 40, Dom: 1}},
		{Kind: MutTouch, Name: "exact.com", Updated: sub},
		{Kind: MutRenew, Name: "exact.com", Updated: at, Expiry: sub},
		{Kind: MutTransfer, Name: "exact.com", RegistrarID: 1 << 40, Updated: at},
		{Kind: MutSetState, Name: "exact.com", Status: model.StatusPendingDelete, DeleteDay: simtime.Day{Year: 1 << 30, Month: 1, Dom: 1}},
		// Whole seconds and calendar days, outside what 32 and 16 bits hold.
		{Kind: MutCreate, ID: 2, Name: "early.com", RegistrarID: 1000, Created: time.Unix(-1, 0), Updated: at, Expiry: at},
		{Kind: MutTouch, Name: "exact.com", Updated: time.Unix(1<<32-1, 0)},
		{Kind: MutRenew, Name: "exact.com", Updated: at, Expiry: at.AddDate(100, 0, 0)},
		{Kind: MutTransfer, Name: "exact.com", RegistrarID: 1001, Updated: time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC)},
		{Kind: MutSetState, Name: "exact.com", Status: model.StatusRedemption, Updated: at.AddDate(1000, 0, 0)},
		{Kind: MutSetState, Name: "exact.com", Status: model.StatusPendingDelete, DeleteDay: simtime.Day{Year: 2149, Month: 6, Dom: 7}},
		// A status beyond the record's six bits.
		{Kind: MutSeed, ID: 2, Name: "status.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at, Status: 64},
		{Kind: MutSetState, Name: "exact.com", Status: 64},
		// An object ID beyond the record's 32 bits.
		{Kind: MutSeed, ID: 1 << 32, Name: "bigid.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at},
		{Kind: MutCreate, ID: 1 << 32, Name: "bigid.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at},
	}
	gen, nextID := s.Generation(), s.nextID.Load()
	for _, m := range bad {
		if err := s.Apply(m); !errors.Is(err, errUnrepresentable) {
			t.Fatalf("Apply(%v %q) = %v, want errUnrepresentable", m.Kind, m.Name, err)
		}
		for _, workers := range []int{1, 4} {
			if err := s.ApplyBatch([]Mutation{m, m}, workers); !errors.Is(err, errUnrepresentable) {
				t.Fatalf("ApplyBatch(%v %q, %d workers) = %v, want errUnrepresentable", m.Kind, m.Name, workers, err)
			}
		}
	}
	if s.Count() != 1 || s.Generation() != gen || s.nextID.Load() != nextID {
		t.Fatalf("refused records changed the store: count %d, generation %d -> %d, allocator %d -> %d",
			s.Count(), gen, s.Generation(), nextID, s.nextID.Load())
	}
	after, _ := s.Get("exact.com")
	if *after != *before {
		t.Fatalf("refused records changed the registration:\n before %+v\n after  %+v", before, after)
	}
	if day, ok := bucketDayOf(s, "exact.com"); !ok || day != beforeDay {
		t.Fatalf("due bucket = %v (ok=%v), want %v", day, ok, beforeDay)
	}
}

// TestRestoreRefusesUnrepresentable: a snapshot registration filed under a
// TLD that is not its name's last label, or whose name is longer than a
// record's length byte, is refused, and the store stays as it was.
func TestRestoreRefusesUnrepresentable(t *testing.T) {
	s, _ := testStore(t)
	at := time.Date(2018, 1, 8, 9, 0, 0, 0, time.UTC)
	if _, err := s.SeedAt("exact.com", 1000, at, at, at.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	for _, d := range []model.Domain{
		{ID: 2, Name: "a.b.com", TLD: "b.com"},
		{ID: 3, Name: strings.Repeat("n", 252) + ".com", TLD: "com"},
		{ID: 1 << 32, Name: "bigid.com", TLD: "com"},
	} {
		d.RegistrarID, d.Created, d.Updated, d.Expiry = 1000, at, at, at.AddDate(1, 0, 0)
		if err := s.InstallRestoredDomains([]SnapshotDomain{{Domain: d}}); !errors.Is(err, errUnrepresentable) {
			t.Fatalf("InstallRestoredDomains(%q under %q) = %v, want errUnrepresentable", d.Name, d.TLD, err)
		}
		if s.Count() != 1 || s.Generation() != gen {
			t.Fatalf("refused %q changed the store: count %d, generation %d -> %d", d.Name, s.Count(), gen, s.Generation())
		}
	}
}

// TestRestoreRefusesNamesACreateRefuses: a snapshot registration whose
// name a live create would refuse — not lower-case LDH, or under a TLD no
// zone operates — is refused, and the store stays as it was. Every stored
// name is therefore written as it stands in a list row, with nothing to quote.
func TestRestoreRefusesNamesACreateRefuses(t *testing.T) {
	s, _ := testStore(t)
	at := time.Date(2018, 1, 8, 9, 0, 0, 0, time.UTC)
	for i, name := range []string{"Upper.com", "a,b.com", `a"b.com`, " lead.com", "new\nline.com", "-dash.com", "ok.org"} {
		tld, _ := model.TLDOf(name)
		d := model.Domain{ID: uint64(i + 1), Name: name, TLD: tld, RegistrarID: 1000, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)}
		if err := s.InstallRestoredDomains([]SnapshotDomain{{Domain: d}}); !errors.Is(err, ErrBadName) && !errors.Is(err, ErrUnknownTLD) {
			t.Errorf("InstallRestoredDomains(%q) = %v, want ErrBadName or ErrUnknownTLD", name, err)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("refused names were installed: count %d", s.Count())
	}
}

// TestExhaustedAllocatorRefusesCreates: the allocator hands out IDs up to
// 2³²−1, the last a record holds. Past it a live create or seed is refused
// without consuming an ID or changing the store, while a replayed create,
// which brings its own ID, still lands.
func TestExhaustedAllocatorRefusesCreates(t *testing.T) {
	s, clock := testStore(t)
	at := simtime.Trunc(clock.Now())
	s.FinishRestore(s.Generation(), math.MaxUint32-1)
	d, err := s.CreateAt("last.com", 1000, 1, at)
	if err != nil || d.ID != math.MaxUint32 {
		t.Fatalf("CreateAt at the allocator's last ID = %+v, %v; want ID %d", d, err, uint64(math.MaxUint32))
	}
	if got, _ := s.Get("last.com"); got.ID != math.MaxUint32 {
		t.Fatalf("stored ID = %d, want %d", got.ID, uint64(math.MaxUint32))
	}
	count, gen := s.Count(), s.Generation()
	if _, err := s.CreateAt("late.com", 1000, 1, at); !errors.Is(err, errUnrepresentable) {
		t.Fatalf("CreateAt past the allocator = %v, want errUnrepresentable", err)
	}
	if _, err := s.SeedAt("late.net", 1000, at, at, at.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); !errors.Is(err, errUnrepresentable) {
		t.Fatalf("SeedAt past the allocator = %v, want errUnrepresentable", err)
	}
	if s.Count() != count || s.Generation() != gen || s.nextID.Load() != math.MaxUint32 {
		t.Fatalf("refused creates changed the store: count %d -> %d, generation %d -> %d, allocator %d",
			count, s.Count(), gen, s.Generation(), s.nextID.Load())
	}
	if err := s.Apply(Mutation{Kind: MutCreate, ID: 7, Name: "replayed.com", RegistrarID: 1000, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("replayed.com"); err != nil || got.ID != 7 {
		t.Fatalf("replayed create = %+v, %v; want ID 7", got, err)
	}
	if s.nextID.Load() != math.MaxUint32 {
		t.Fatalf("a replayed lower ID moved the allocator to %d", s.nextID.Load())
	}
	checkDuePositions(t, s)
}

// TestTransferRejectsBadAuthInfo: every way of not knowing the code is
// ErrBadAuthInfo — empty, wrong, the code a transfer rotated away, and any
// guess at all for a seeded registration, which has no code.
func TestTransferRejectsBadAuthInfo(t *testing.T) {
	s, _ := testStore(t)
	created, err := s.Create("held.com", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, _ := s.AuthInfo("held.com", 1000)
	for _, presented := range []string{"", "wrong", code[:len(code)-1], code + "x", "AX-000000000000"} {
		if err := s.Transfer("held.com", 1001, presented); !errors.Is(err, ErrBadAuthInfo) {
			t.Fatalf("Transfer with %q: %v, want ErrBadAuthInfo", presented, err)
		}
	}
	if err := s.Transfer("held.com", 1001, code); err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer("held.com", 1000, code); !errors.Is(err, ErrBadAuthInfo) {
		t.Fatalf("Transfer with the pre-transfer code: %v, want ErrBadAuthInfo", err)
	}

	at := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	seeded, err := s.SeedAt("seeded.com", 1000, at, at, at.AddDate(5, 0, 0), model.StatusActive, simtime.Day{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.AuthInfo("seeded.com", 1000); err != nil || got != "" {
		t.Fatalf("AuthInfo of a seeded registration = %q, %v; want none", got, err)
	}
	for _, presented := range []string{"", "wrong", code, refAuthInfo(seeded.ID, "seeded.com"), refAuthInfo(seeded.ID^0x5bf0, "seeded.com")} {
		if err := s.Transfer("seeded.com", 1001, presented); !errors.Is(err, ErrBadAuthInfo) {
			t.Fatalf("Transfer of a seeded registration with %q: %v, want ErrBadAuthInfo", presented, err)
		}
	}
	if d, _ := s.Get("held.com"); d.RegistrarID != 1001 || d.ID != created.ID {
		t.Fatalf("held.com = %+v", d)
	}
}

// refAuthInfo is the transfer-code derivation as the store had it when
// codes were kept in a map, retained as the oracle's independent copy.
func refAuthInfo(id uint64, name string) string {
	h := id + 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 12)
	for i := range buf {
		buf[i] = digits[h%36]
		h /= 36
	}
	return "AX-" + string(buf)
}

// authOracle is the representation the store used to have: one code per
// name in a plain map, absent for seeded registrations.
type authOracle map[string]string

// check compares every live registration's code, and every purged name's
// absence, with the oracle.
func (o authOracle) check(t *testing.T, label string, s *Store) {
	t.Helper()
	seen := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.tab.each(func(r *record, _ uint32) bool {
			name := r.name()
			if got, want := sh.authInfo(r), o[name]; got != want {
				t.Errorf("%s: %s: code %q, oracle %q", label, name, got, want)
			}
			if _, has := o[name]; has {
				seen++
			}
			return true
		})
		for name := range sh.authStored {
			if r, _ := sh.tab.get(name); r == nil || r.auth() != authStored {
				t.Errorf("%s: stored code for %s outlived its registration or state", label, name)
			}
		}
		sh.mu.RUnlock()
	}
	if seen != len(o) {
		t.Errorf("%s: oracle holds %d codes, %d of them for live registrations", label, len(o), seen)
	}
}

// TestAuthInfoMatchesMapOracle drives creates, seeds, transfers and purges
// against the oracle, then rebuilds the store every way recovery and
// replication can — snapshot restore (with a code that matches neither
// derivation), record-at-a-time replay, batched replay, per-shard replay —
// and requires the same codes each time.
func TestAuthInfoMatchesMapOracle(t *testing.T) {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	clock := simtime.NewSimClock(start.At(9, 0, 0))
	s := NewStoreWithShards(clock, 4)
	cap := &captureJournal{}
	s.SetJournal(cap)
	for r := 0; r < 3; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("R%d", r)})
	}
	if err := s.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	oracle := authOracle{}
	sponsor := map[string]int{}
	rng := rand.New(rand.NewSource(12))
	var names []string
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("auth%03d.%s", i, []string{"com", "net", "se"}[i%3])
		reg := 1000 + rng.Intn(3)
		if i%2 == 0 {
			d, err := s.Create(name, reg, 1)
			if err != nil {
				t.Fatal(err)
			}
			oracle[name] = refAuthInfo(d.ID, name)
		} else {
			at := start.At(1, 0, i%60)
			status, day := model.StatusActive, simtime.Day{}
			if i%8 == 1 {
				status, day = model.StatusPendingDelete, start
			}
			if _, err := s.SeedAt(name, reg, at, at, at.AddDate(1, 0, 0), status, day); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
		sponsor[name] = reg
	}
	transfers, purges := 0, 0
	churn := func(s *Store, rounds int) {
		for i := 0; i < rounds; i++ {
			name := names[rng.Intn(len(names))]
			d, err := s.Get(name)
			if err != nil {
				continue // purged
			}
			switch rng.Intn(4) {
			case 0:
				if d.Status == model.StatusPendingDelete {
					if _, err := s.purge(name, start.At(19, 0, i%60), i); err != nil {
						t.Fatal(err)
					}
					delete(oracle, name)
					purges++
				}
			default:
				gaining := 1000 + rng.Intn(3)
				code, err := s.AuthInfo(name, sponsor[name])
				if err != nil {
					t.Fatal(err)
				}
				if code != oracle[name] {
					t.Fatalf("%s: AuthInfo %q, oracle %q", name, code, oracle[name])
				}
				err = s.Transfer(name, gaining, code)
				switch {
				case err == nil:
					oracle[name] = refAuthInfo(d.ID^0x5bf0, name)
					sponsor[name] = gaining
					transfers++
				case code == "" && errors.Is(err, ErrBadAuthInfo):
				case errors.Is(err, ErrWrongRegistrar), errors.Is(err, ErrStatusProhibits):
				default:
					t.Fatalf("Transfer %s: %v", name, err)
				}
			}
		}
	}
	churn(s, 600)
	if transfers < 100 || purges < 10 {
		t.Fatalf("workout too quiet: %d transfers, %d purges", transfers, purges)
	}
	oracle.check(t, "live", s)

	replayed := func(label string, apply func(*Store, []Mutation) error) {
		t.Helper()
		re := NewStoreWithShards(simtime.NewSimClock(start.At(0, 0, 0)), 2)
		if err := apply(re, cap.records); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		oracle.check(t, label, re)
	}
	replayed("Apply", func(re *Store, ms []Mutation) error {
		for _, m := range ms {
			if err := re.Apply(m); err != nil {
				return err
			}
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		replayed(fmt.Sprintf("ApplyBatch/workers%d", workers), func(re *Store, ms []Mutation) error {
			for off := 0; off < len(ms); off += 97 {
				if err := re.ApplyBatch(ms[off:min(off+97, len(ms))], workers); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Snapshot and restore, with two codes of foreign make: one on a
	// created registration, one on a seeded one.
	snap := s.CaptureSnapshotSharded()
	foreign, captured := 0, 0
	for _, shard := range snap.Shards {
		for i := range shard {
			name := shard[i].Domain.Name
			if string(shard[i].AuthInfo) != oracle[name] {
				t.Fatalf("snapshot carries %q for %s, oracle %q", shard[i].AuthInfo, name, oracle[name])
			}
			if foreign < 2 && shard[i].Domain.Status == model.StatusActive && (foreign == 0) == (oracle[name] != "") {
				oracle[name] = fmt.Sprintf("legacy-code-%d", foreign)
				shard[i].AuthInfo = []byte(oracle[name])
				foreign++
			}
			captured++
		}
	}
	if foreign != 2 {
		t.Fatalf("placed %d foreign codes, want 2", foreign)
	}
	re := NewStoreWithShards(clock, 8)
	if err := re.restoreCaptured(snap); err != nil {
		t.Fatal(err)
	}
	oracle.check(t, "restored", re)
	recaptured := 0
	for _, shard := range re.CaptureSnapshotSharded().Shards {
		for _, sd := range shard {
			if string(sd.AuthInfo) != oracle[sd.Domain.Name] {
				t.Fatalf("re-captured snapshot carries %q for %s, oracle %q", sd.AuthInfo, sd.Domain.Name, oracle[sd.Domain.Name])
			}
			recaptured++
		}
	}
	if recaptured != captured {
		t.Fatalf("re-captured %d registrations, want %d", recaptured, captured)
	}
	// The foreign codes authorise a transfer like any other and rotate away;
	// purging a holder of one forgets it.
	churn(re, 2000)
	for name, code := range oracle {
		if len(code) > 7 && code[:7] == "legacy-" {
			if err := re.setState(name, model.StatusPendingDelete, time.Time{}, start); err != nil {
				t.Fatal(err)
			}
			if _, err := re.purge(name, start.At(19, 30, 0), 0); err != nil {
				t.Fatal(err)
			}
			delete(oracle, name)
		}
	}
	oracle.check(t, "restored+churn", re)
	for i := range re.shards {
		if n := len(re.shards[i].authStored); n != 0 {
			t.Fatalf("shard %d still stores %d codes", i, n)
		}
	}
}

// checkDuePositions asserts the due index's structural invariant. Per
// bucketed state: the days ascend, each names a bucket with members, and a
// bucket holds each ref once, counts its members (the refs whose record is
// live, in that state and due that day under the policy) and is no more
// than half stale. Every live registration in a bucketed state is a member
// of exactly one bucket, and every active one's chunk bound is at or before
// its expiry.
func checkDuePositions(t *testing.T, s *Store) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		reached := make(map[uint32]bool)
		for k, ix := range sh.due {
			st := firstDueState + model.Status(k)
			for j := 1; j < len(ix); j++ {
				if ix[j-1].day >= ix[j].day {
					t.Fatalf("shard %d %v: days out of order at %d", i, st, j)
				}
			}
			for j := range ix {
				b, day := &ix[j], ix[j].day
				members := 0
				held := make(map[uint32]bool)
				for _, ref := range b.refs {
					if held[ref] {
						t.Fatalf("shard %d %v bucket %v: holds ref %d twice", i, st, day, ref)
					}
					held[ref] = true
					r := sh.tab.rec(ref)
					if !sh.member(r, st, day) {
						continue
					}
					members++
					if reached[ref] {
						t.Fatalf("shard %d %v bucket %v: %s is a member of two buckets", i, st, day, r.name())
					}
					reached[ref] = true
					if got, gotRef := sh.tab.get(r.name()); got != r || gotRef != ref {
						t.Fatalf("shard %d %v bucket %v: ref %d holds %s, which the name index puts at %d", i, st, day, ref, r.name(), gotRef)
					}
				}
				if members == 0 || members != b.live || 2*(len(b.refs)-b.live) > len(b.refs) {
					t.Fatalf("shard %d %v bucket %v: %d refs, %d members, counted %d", i, st, day, len(b.refs), members, b.live)
				}
			}
		}
		sh.tab.each(func(r *record, ref uint32) bool {
			switch st := r.status(); {
			case bucketed(st) && !reached[ref]:
				t.Fatalf("shard %d: %s (%v) is in no bucket", i, r.name(), st)
			case !bucketed(st) && reached[ref]:
				t.Fatalf("shard %d: %s (%v) is in a bucket", i, r.name(), st)
			case st == model.StatusActive && atomic.LoadUint32(&sh.tab.soonest[ref>>chunkShift]) > r.expiry:
				t.Fatalf("shard %d: %s expires at %d, before its chunk's bound %d", i, r.name(), r.expiry, sh.tab.soonest[ref>>chunkShift])
			}
			return true
		})
		sh.mu.RUnlock()
	}
}

// TestDueBucketsUnderRandomChurn applies a random mix of every mutator that
// adds to, moves within or removes from the due index, to two stores in
// lockstep: one ticked through the due index, its twin through the full-scan
// reference (a tick mutates, so it needs a store of its own). After every
// round the positions must be intact and every sweep — lifecycle tick,
// published window, Drop queue — must come out the same from the buckets as
// from the scan, the two read-only ones compared on the indexed store.
func TestDueBucketsUnderRandomChurn(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
			newWorld := func() (*Store, *simtime.SimClock, *Lifecycle, *DropRunner) {
				clock := simtime.NewSimClock(start.At(0, 0, 0))
				s := NewStoreWithShards(clock, shards)
				for r := 0; r < 4; r++ {
					s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("R%d", r)})
				}
				z := nordicZone()
				z.Lifecycle = zone.LifecycleConfig{RedemptionDays: 4, PendingDeleteDays: 2, DefaultGraceDays: 3}
				if err := s.AddZone(z); err != nil {
					t.Fatal(err)
				}
				cfg := DefaultLifecycleConfig()
				cfg.RedemptionDays, cfg.PendingDeleteDays, cfg.DefaultGraceDays = 6, 3, 5
				return s, clock, NewLifecycle(s, cfg), NewDropRunner(s, DefaultDropConfig())
			}
			ix, ixClock, ixLC, ixRun := newWorld()
			sc, scClock, scLC, scRun := newWorld()
			zl := func(s *Store) *Lifecycle { z, _ := s.ZoneByName(nordicZone().Name); return NewZoneLifecycle(s, z) }
			ixZL, scZL := zl(ix), zl(sc)

			rng := rand.New(rand.NewSource(5))
			var names []string
			both := func(op func(s *Store) error) {
				t.Helper()
				e1, e2 := op(ix), op(sc)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("engines disagree: indexed %v, scan %v", e1, e2)
				}
			}
			for round := 0; round < 40; round++ {
				day := start.AddDays(round / 2)
				now := day.At(6+12*(round%2), 0, 0)
				ixClock.Set(now)
				scClock.Set(now)
				for k := 0; k < 60; k++ {
					switch op := rng.Intn(11); {
					case op < 3 || len(names) < 20:
						name := fmt.Sprintf("churn%05d.%s", len(names), []string{"com", "net", "se", "nu"}[rng.Intn(4)])
						reg, term := 1000+rng.Intn(4), 1+rng.Intn(2)
						expiry := day.AddDays(rng.Intn(12)-3).At(rng.Intn(24), 0, rng.Intn(60))
						updated := expiry.AddDate(0, 0, -rng.Intn(30))
						st := model.Status(rng.Intn(4))
						due := simtime.Day{}
						if st == model.StatusPendingDelete {
							due = day.AddDays(rng.Intn(4))
						}
						if rng.Intn(2) == 0 {
							both(func(s *Store) error { _, err := s.Create(name, reg, term); return err })
						} else {
							both(func(s *Store) error {
								_, err := s.SeedAt(name, reg, expiry.AddDate(-1, 0, 0), updated, expiry, st, due)
								return err
							})
						}
						names = append(names, name)
					default:
						name := names[rng.Intn(len(names))]
						d, err := ix.Get(name)
						if err != nil {
							continue
						}
						switch op {
						case 3, 4:
							both(func(s *Store) error { return s.TouchAt(name, d.RegistrarID, now) })
						case 5:
							both(func(s *Store) error { return s.Renew(name, d.RegistrarID, 1) })
						case 6:
							gaining := 1000 + rng.Intn(4)
							both(func(s *Store) error {
								code, _ := s.AuthInfo(name, d.RegistrarID)
								return s.Transfer(name, gaining, code)
							})
						case 7:
							both(func(s *Store) error { return s.MarkRedemption(name, now) })
						case 8:
							due := day.AddDays(rng.Intn(3))
							both(func(s *Store) error { return s.MarkPendingDelete(name, time.Time{}, due) })
						case 9:
							both(func(s *Store) error { _, err := s.purge(name, now, k); return err })
						case 10:
							// Out of pendingDelete and back in on the same day.
							if d.Status == model.StatusPendingDelete {
								both(func(s *Store) error { return s.MarkRedemption(name, now) })
								both(func(s *Store) error { return s.MarkPendingDelete(name, time.Time{}, d.DeleteDay) })
							}
						}
					}
				}
				checkDuePositions(t, ix)
				checkDuePositions(t, sc)

				if a, b := ixLC.Tick(now)+ixZL.Tick(now), scLC.tickScan(now)+scZL.tickScan(now); a != b {
					t.Fatalf("round %d: indexed tick moved %d, scan tick %d", round, a, b)
				}
				checkDuePositions(t, ix)
				for _, win := range []int{1, 5} {
					a, b := ix.PendingDeletions(day, win), ix.pendingDeletionsScan(day, win)
					if !slices.Equal(a, b) {
						t.Fatalf("round %d: %d-day window differs:\n indexed %v\n scan    %v", round, win, a, b)
					}
				}
				if a, b := ixRun.BuildQueue(day), ixRun.buildQueueScan(day); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("round %d: queue differs:\n indexed %v\n scan    %v", round, a, b)
				}
				if round%2 == 1 {
					a, errA := ixRun.Run(day, rand.New(rand.NewSource(int64(round))))
					b, errB := scRun.Run(day, rand.New(rand.NewSource(int64(round))))
					if errA != nil || errB != nil || fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("round %d: drops differ (%v, %v):\n indexed %v\n scan    %v", round, errA, errB, a, b)
					}
					checkDuePositions(t, ix)
				}
			}
			if a, b := dumpStore(ix, start, 40), dumpStore(sc, start, 40); a != b {
				diffDumps(t, "indexed", "scan", a, b)
			}
			if ix.Count() == 0 || len(ix.Deletions(start.AddDays(5))) == 0 {
				t.Fatalf("workout too quiet: %d live, %d deleted on day 5", ix.Count(), len(ix.Deletions(start.AddDays(5))))
			}
		})
	}
}

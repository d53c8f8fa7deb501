package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"dropzero/internal/binwire"
	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// The snapshot format: per-shard sections in the same hand-rolled binary
// codec as the WAL (encode.go). Sections encode and decode with plain varint
// walks and — the point — independently, so a worker per shard parallelises
// both directions. Layout, little-endian:
//
//	magic "DZSNAP3\n"
//	section* — u32 body length · u32 CRC-32 (IEEE) of body · body
//
// Every section body starts with a kind byte. The first section must be
// the meta section (kind 1):
//
//	seq uvarint · gen uvarint · nextID uvarint
//	appState: present u8 (0/1) · uvarint-len + bytes when present
//	registrars: uvarint count · registrar fields (appendRegistrar)
//	domainSections uvarint · deletionSections uvarint
//	zones: uvarint count · zone configs (appendZone) — the zones hosted
//	beyond the implicit default one, 0 for a default-only store
//
// followed by exactly domainSections domain sections (kind 2: writer shard
// index uvarint, domain count uvarint, then per domain name/ID/TLD/
// registrarID/created/updated/expiry/status/deleteDay/authInfo) and
// deletionSections deletion-archive sections (kind 3: day count uvarint,
// then per day year varint, month u8, dom u8, event count uvarint and the
// events in archive order). No trailing bytes.
//
// Readers validate structure and every section CRC *before* touching the
// store: a torn or corrupt section fails the whole file loudly with no
// partial restore, which lets recovery fall back to an older snapshot with
// the store still empty. The writer-side shard split is just an encoding
// parallelism choice — restore re-routes every domain by name hash, so a
// snapshot written at one shard count restores at any other.
//
// One magic is written, two are read: "DZSNAP2\n" files — what default-only
// stores wrote before every snapshot carried the zone table — are the same
// layout with the meta section ending after the section census, and go
// through the same parse and install. "DZSNAP1\n" (one gob stream, last
// written before the sectioned format existed) is refused by name: see
// errSnapshotFormat.
const (
	snapMagic  = "DZSNAP3\n"
	snapMagic2 = "DZSNAP2\n"
	snapMagic1 = "DZSNAP1\n"
	secHeader  = 8 // u32 body length + u32 CRC-32 of body

	secMeta      byte = 1
	secDomains   byte = 2
	secDeletions byte = 3
)

// errSnapshotFormat marks a snapshot this build refuses to read because of
// the format its magic names — as opposed to one that is damaged. Recovery
// does not fall back past such a file.
var errSnapshotFormat = errors.New("unsupported snapshot format")

// snapMeta is the decoded meta section of a v2 snapshot.
type snapMeta struct {
	seq              uint64
	gen              uint64
	nextID           uint64
	appState         []byte // nil when the writer stored none
	registrars       []model.Registrar
	domainSections   int
	deletionSections int
	zones            []zone.Config // beyond the default zone; nil when none
}

// A domain section's buffer is sized from the shard itself: about sizeSample
// registrations evenly spaced over the shard (SampleShard) are encoded into
// a scratch buffer, and their mean size (plus a few percent, and sampleRoom
// bytes) times the shard's count sizes the one buffer the section is
// appended to. The deletion archive gets deletionRoom bytes per event.
const (
	sizeSample   = 256
	sampleRoom   = 96
	deletionRoom = 64
)

// newSection starts a framed section of the given kind with room for hint
// body bytes, reusing buf's array when it is large enough. The frame header
// is reserved in place and filled in by sealSection, so a section is
// encoded, checksummed and written out of one buffer.
func newSection(buf []byte, kind byte, hint int) []byte {
	if need := secHeader + 1 + hint; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	var hdr [secHeader]byte
	return append(append(buf[:0], hdr[:]...), kind)
}

// sealSection fills in b's frame header: body length and CRC.
func sealSection(b []byte) []byte {
	body := b[secHeader:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(body))
	return b
}

func appendMeta(b []byte, m *snapMeta) []byte {
	b = binary.AppendUvarint(b, m.seq)
	b = binary.AppendUvarint(b, m.gen)
	b = binary.AppendUvarint(b, m.nextID)
	if m.appState == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(m.appState)))
		b = append(b, m.appState...)
	}
	b = binary.AppendUvarint(b, uint64(len(m.registrars)))
	for i := range m.registrars {
		b = appendRegistrar(b, &m.registrars[i])
	}
	b = binary.AppendUvarint(b, uint64(m.domainSections))
	b = binary.AppendUvarint(b, uint64(m.deletionSections))
	b = binary.AppendUvarint(b, uint64(len(m.zones)))
	for i := range m.zones {
		b = appendZone(b, &m.zones[i])
	}
	return b
}

// newDomainSection starts writer shard's domain section of n registrations
// with room bytes for them.
func newDomainSection(buf []byte, shard, n, room int) []byte {
	b := newSection(buf, secDomains, 2*binary.MaxVarintLen64+room)
	b = binary.AppendUvarint(b, uint64(shard))
	return binary.AppendUvarint(b, uint64(n))
}

func appendDomain(b []byte, d *model.Domain, authInfo []byte) []byte {
	b = binwire.AppendString(b, d.Name)
	b = binary.AppendUvarint(b, d.ID)
	b = binwire.AppendString(b, string(d.TLD))
	b = binary.AppendVarint(b, int64(d.RegistrarID))
	b = binwire.AppendTime(b, d.Created)
	b = binwire.AppendTime(b, d.Updated)
	b = binwire.AppendTime(b, d.Expiry)
	b = append(b, byte(d.Status))
	b = binwire.AppendDay(b, d.DeleteDay)
	b = binary.AppendUvarint(b, uint64(len(authInfo)))
	return append(b, authInfo...)
}

func appendDeletions(b []byte, dels map[simtime.Day][]model.DeletionEvent) []byte {
	days := make([]simtime.Day, 0, len(dels))
	for day := range dels {
		days = append(days, day)
	}
	// Deterministic day order so identical states produce identical files.
	slices.SortFunc(days, simtime.Day.Compare)
	b = binary.AppendUvarint(b, uint64(len(days)))
	for _, day := range days {
		b = binwire.AppendDay(b, day)
		evs := dels[day]
		b = binary.AppendUvarint(b, uint64(len(evs)))
		for i := range evs {
			ev := &evs[i]
			b = binary.AppendUvarint(b, ev.DomainID())
			b = binwire.AppendString(b, ev.Name())
			b = binwire.AppendString(b, string(ev.TLD()))
			b = binwire.AppendTime(b, ev.Time())
			b = binary.AppendVarint(b, int64(ev.Rank()))
		}
	}
	return b
}

// snapImage is an encoded snapshot awaiting its file: every section framed
// and checksummed, in file order.
type snapImage struct {
	seq  uint64
	meta []byte
	secs [][]byte // one domain section per store shard, then the deletion archive
}

// encode fills img straight from the store, on up to workers goroutines:
// each takes one shard's read lock (none when r is quiesced), sizes one
// buffer from a sample of the shard (see sizeSample) and appends
// the shard's domain section to it; the deletion archive is encoded under
// its own lock the same way. No copy of the store is built on the way.
// Section buffers of an earlier encode of img — an optimistic attempt that
// lost its generation race — are reused.
func (img *snapImage) encode(r *registry.SnapshotReader, seq uint64, appState []byte, workers int) {
	shards := r.ShardCount()
	prev := img.secs
	if prev == nil {
		prev = make([][]byte, shards+1)
	}
	img.secs = par.Do(par.Workers(workers), shards+1, func(i int) []byte {
		var b []byte
		if i == shards {
			r.VisitDeletions(func(dels map[simtime.Day][]model.DeletionEvent) {
				events := 0
				for _, evs := range dels {
					events += len(evs)
				}
				b = appendDeletions(newSection(prev[i], secDeletions, events*deletionRoom), dels)
			})
		} else {
			// Sampled before VisitShard, not inside it: both take the
			// shard's read lock.
			var scratch []byte
			sampled, seen := 0, 0
			r.SampleShard(i, sizeSample, func(d *model.Domain, authInfo []byte) {
				scratch = appendDomain(scratch[:0], d, authInfo)
				sampled += len(scratch)
				seen++
			})
			r.VisitShard(i,
				func(n int) {
					est := sampled * n / max(seen, 1)
					b = newDomainSection(prev[i], i, n, est+est/32+sampleRoom)
				},
				func(d *model.Domain, authInfo []byte) { b = appendDomain(b, d, authInfo) })
		}
		return sealSection(b)
	})
	m := snapMeta{
		seq:              seq,
		appState:         appState,
		registrars:       r.Registrars(),
		domainSections:   shards,
		deletionSections: 1,
		zones:            r.Zones(),
	}
	m.gen, m.nextID = r.Counters()
	img.seq = seq
	img.meta = sealSection(appendMeta(newSection(nil, secMeta, 0), &m))
}

// write persists img atomically into dir and returns the final path. Each
// section's buffer is dropped as soon as it is written.
func (img *snapImage) write(dir string) (string, error) {
	return writeFileAtomic(dir, snapName(img.seq), func(f *os.File) error {
		if _, err := io.WriteString(f, snapMagic); err != nil {
			return err
		}
		if _, err := f.Write(img.meta); err != nil {
			return err
		}
		for i, sec := range img.secs {
			if _, err := f.Write(sec); err != nil {
				return err
			}
			img.secs[i] = nil
		}
		return nil
	})
}

// snapV2 is a parsed, CRC-verified snapshot: the decoded meta section plus
// the still-encoded domain and deletion section bodies (kind byte stripped),
// ready for concurrent decode+install.
type snapV2 struct {
	meta     snapMeta
	domains  [][]byte
	deletion [][]byte
}

// parseSnapshotV2 validates the whole file image — magic, framing, every
// section CRC, the meta section's contents, the section census — without
// touching any store; name labels errors (a file's base name, or "shipped"
// for replicated bytes). All-or-nothing by construction: install starts only
// after this succeeds, so a torn or corrupt section can never leave a
// partial restore.
func parseSnapshotV2(data []byte, name string) (*snapV2, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("journal: snapshot %s: "+format, append([]any{name}, args...)...)
	}
	var zones bool
	switch magic := string(data[:min(len(data), len(snapMagic))]); magic {
	case snapMagic:
		zones = true
	case snapMagic2:
	case snapMagic1:
		return nil, bad("%w: DZSNAP1 (gob) snapshots are no longer read; open the data directory with a build that reads them and take a snapshot there", errSnapshotFormat)
	default:
		return nil, bad("bad header")
	}
	sv := &snapV2{}
	off := len(snapMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < secHeader {
			return nil, bad("%d trailing bytes at offset %d", rest, off)
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln < 1 || ln > rest-secHeader {
			return nil, bad("bad section length %d at offset %d", ln, off)
		}
		body := data[off+secHeader : off+secHeader+ln]
		if crc32.ChecksumIEEE(body) != crc {
			return nil, bad("section CRC mismatch at offset %d", off)
		}
		kind := body[0]
		switch {
		case off == len(snapMagic):
			if kind != secMeta {
				return nil, bad("first section has kind %d, want meta", kind)
			}
			meta, err := decodeMetaSection(body[1:], zones)
			if err != nil {
				return nil, bad("meta section: %w", err)
			}
			sv.meta = meta
		case kind == secDomains:
			sv.domains = append(sv.domains, body[1:])
		case kind == secDeletions:
			sv.deletion = append(sv.deletion, body[1:])
		default:
			return nil, bad("unknown section kind %d at offset %d", kind, off)
		}
		off += secHeader + ln
	}
	if off == len(snapMagic) {
		return nil, bad("no sections")
	}
	if len(sv.domains) != sv.meta.domainSections || len(sv.deletion) != sv.meta.deletionSections {
		return nil, bad("have %d domain + %d deletion sections, meta promises %d + %d",
			len(sv.domains), len(sv.deletion), sv.meta.domainSections, sv.meta.deletionSections)
	}
	return sv, nil
}

// decodeMetaSection parses the meta section body; zones says whether it
// carries the zone table (every file but a DZSNAP2 one). Either way the body
// must end where its layout does, so the two cannot be confused.
func decodeMetaSection(body []byte, zones bool) (snapMeta, error) {
	var m snapMeta
	d := binwire.NewDecoder(body)
	m.seq, m.gen, m.nextID = d.Uvarint(), d.Uvarint(), d.Uvarint()
	switch present := d.Byte(); present {
	case 0:
	case 1:
		m.appState = []byte(d.Str())
	default:
		return m, fmt.Errorf("bad appState flag %d", present)
	}
	for i, n := 0, d.Count(math.MaxInt); i < n && d.Err() == nil; i++ {
		m.registrars = append(m.registrars, decodeRegistrar(d))
	}
	// The sections follow the meta section, not these counts: bound them far
	// beyond MaxShards instead of by the bytes left.
	const maxSections = 1 << 20
	nd, ndel := d.Uvarint(), d.Uvarint()
	if nd > maxSections || ndel > maxSections {
		return m, fmt.Errorf("unreasonable section counts %d/%d", nd, ndel)
	}
	m.domainSections, m.deletionSections = int(nd), int(ndel)
	if zones {
		for i, n := 0, d.Count(1<<16); i < n && d.Err() == nil; i++ {
			m.zones = append(m.zones, decodeZone(d))
		}
	}
	return m, d.Finish()
}

const nameBlockSize = 64 << 10

// spell copies name into block b, starting a new nameBlockSize block when b
// lacks the room, and returns the copy, so names share blocks as the
// seeder's do: a builder grown once never moves its buffer, and each
// String() is a view of it. A store frees no name while it lives, so a
// block pins nothing that a string per name would have freed.
func spell(b *strings.Builder, name []byte) string {
	if b.Cap()-b.Len() < len(name) {
		*b = strings.Builder{}
		b.Grow(max(nameBlockSize, len(name)))
	}
	off := b.Len()
	b.Write(name)
	return b.String()[off:]
}

// suffixTLD is name's suffix when name ends in "."+tld, else a copy of tld
// for the store to refuse.
func suffixTLD(name string, tld []byte) model.TLD {
	if n := len(name) - len(tld); n > 0 && name[n-1] == '.' && name[n:] == string(tld) {
		return model.TLD(name[n:])
	}
	return model.TLD(tld)
}

// decodeDomainSection streams one domain section to emit in chunks (reused
// between calls), so a restore worker never materialises its whole shard
// before installing. Each AuthInfo is a view of body.
func decodeDomainSection(body []byte, emit func([]registry.SnapshotDomain) error) error {
	d := binwire.NewDecoder(body)
	d.Uvarint() // writer shard index, informational
	count := d.Count(math.MaxInt)
	const chunkSize = 4096
	chunk := make([]registry.SnapshotDomain, 0, min(count, chunkSize))
	var names strings.Builder
	for i := 0; i < count; i++ {
		var sd registry.SnapshotDomain
		dom := &sd.Domain
		dom.Name = spell(&names, d.View())
		dom.ID = d.Uvarint()
		dom.TLD = suffixTLD(dom.Name, d.View())
		dom.RegistrarID = d.Int()
		dom.Created, dom.Updated, dom.Expiry = d.Time(), d.Time(), d.Time()
		dom.Status = model.Status(d.Byte())
		dom.DeleteDay = d.Day()
		sd.AuthInfo = d.View()
		if d.Err() != nil {
			break
		}
		chunk = append(chunk, sd)
		if len(chunk) == chunkSize {
			if err := emit(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return emit(chunk)
}

func decodeDeletionsSection(body []byte) (map[simtime.Day][]model.DeletionEvent, error) {
	d := binwire.NewDecoder(body)
	days := d.Count(math.MaxInt)
	dels := make(map[simtime.Day][]model.DeletionEvent, min(days, 4096))
	var names strings.Builder
	for i := 0; i < days && d.Err() == nil; i++ {
		day := d.Day()
		n := d.Count(math.MaxInt)
		evs := slices.Grow(dels[day], n)
		for j := 0; j < n && d.Err() == nil; j++ {
			id, name, tld := d.Uvarint(), spell(&names, d.View()), d.View()
			ev, err := model.NewDeletionEvent(id, name, d.Time(), d.Int())
			if d.Err() != nil {
				break
			}
			if err != nil {
				return nil, err
			}
			// The event derives its TLD from its name; a section that says
			// otherwise would not re-encode to the same bytes.
			if string(tld) != string(ev.TLD()) {
				return nil, fmt.Errorf("deletion %q filed under TLD %q", name, tld)
			}
			evs = append(evs, ev)
		}
		dels[day] = evs
	}
	return dels, d.Finish()
}

// installSnapshotV2 decodes sv's sections and installs them into the empty
// store on up to workers goroutines. Each worker decodes its section
// incrementally (decodeDomainSection) into InstallRestoredDomains, which
// locks exactly the shards that section's names hash to. An error poisons
// the store (partial install) — the caller must discard it, never retry.
func installSnapshotV2(store *registry.Store, sv *snapV2, workers int) error {
	if err := store.RestoreZones(sv.meta.zones); err != nil {
		return fmt.Errorf("journal: snapshot restore: %w", err)
	}
	store.RestoreRegistrars(sv.meta.registrars)
	n := len(sv.domains) + len(sv.deletion)
	errs := par.Do(par.Workers(workers), n, func(i int) error {
		if i < len(sv.domains) {
			if err := decodeDomainSection(sv.domains[i], store.InstallRestoredDomains); err != nil {
				return fmt.Errorf("domain section %d: %w", i, err)
			}
			return nil
		}
		dels, err := decodeDeletionsSection(sv.deletion[i-len(sv.domains)])
		if err != nil {
			return fmt.Errorf("deletion section %d: %w", i-len(sv.domains), err)
		}
		store.MergeRestoredDeletions(dels)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("journal: snapshot restore: %w", err)
		}
	}
	store.FinishRestore(sv.meta.gen, sv.meta.nextID)
	return nil
}

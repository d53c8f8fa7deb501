package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dropzero/internal/par"
	"dropzero/internal/registry"
)

// The two snapshot writers production no longer has, kept for the tests:
// the materialising v2/v3 writer (the oracle the single-pass encode is
// compared against) and the v1 gob writer (input for the v1 reader).

// writeSnapshotV2 persists a materialised store copy as a v2/v3 snapshot:
// the two-pass shape Journal.Snapshot had before it encoded straight from
// the store. It shares the section codec with snapImage.encode and nothing
// of its traversal.
func writeSnapshotV2(dir string, seq uint64, appState []byte, st *registry.ShardedSnapshot, workers int) (string, error) {
	img := snapImage{seq: seq, v3: len(st.Zones) > 0}
	img.secs = par.Do(par.Workers(workers), len(st.Shards)+1, func(i int) []byte {
		if i == len(st.Shards) {
			return sealSection(appendDeletions(newSection(nil, secDeletions, 0), st.Deletions))
		}
		b := newDomainSection(nil, i, len(st.Shards[i]), 0)
		for k := range st.Shards[i] {
			b = appendDomain(b, &st.Shards[i][k].Domain, []byte(st.Shards[i][k].AuthInfo))
		}
		return sealSection(b)
	})
	img.meta = sealSection(appendMeta(newSection(nil, secMeta, 0), &snapMeta{
		seq: seq, gen: st.Gen, nextID: st.NextID, appState: appState, registrars: st.Registrars,
		domainSections: len(st.Shards), deletionSections: 1, zones: st.Zones,
	}))
	return img.write(dir)
}

// crcWriter tees writes through a running CRC-32.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// writeSnapshot persists sf atomically into dir in the v1 gob format and
// returns the final path.
func writeSnapshot(dir string, sf *snapshotFile) (string, error) {
	final := filepath.Join(dir, snapName(sf.Seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(f, 1<<20)
	cw := &crcWriter{w: bw}
	err = func() error {
		if _, err := io.WriteString(cw, snapMagic); err != nil {
			return err
		}
		if err := gob.NewEncoder(cw).Encode(sf); err != nil {
			return err
		}
		var footer [snapFooter]byte
		binary.LittleEndian.PutUint32(footer[:], cw.crc)
		if _, err := bw.Write(footer[:]); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("journal: sync dir: %w", err)
	}
	return final, nil
}

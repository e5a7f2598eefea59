package fleet

// The checkpoint image store makes a restore a *verified* event instead of
// an accounting entry: every landed bundle is persisted as a mirrored pair
// of CRC-framed blobs (img-<xfer>.ckpt + img-<xfer>.ckmr) in the landing
// site's subdirectory, read back, and checked byte-for-byte before the
// coordinator records RecRestore / RecXferDone. The blobs use the journal's
// snapshot framing, so the one scrubber that patrols snapshot slots and
// sealed segments also patrols parked images — journal.ScrubDir treats
// *.ckpt/*.ckmr as a repairable mirror pair.
//
// A landing that cannot be verified (both copies unreadable, or the write
// itself failed) is not a restore: the checkpoint is still durable at the
// source, so the coordinator ships it again — RecXferReroute on the WAN
// path, a fresh shipment plus RecCheckpoint on the legacy path.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"insure/internal/journal"
	"insure/internal/seed"
)

// ImageStats counts image-store events.
type ImageStats struct {
	Landed    int // image bundles written to disk
	Verified  int // landings that read back intact
	Repaired  int // damaged copies rebuilt from their intact sibling
	Corrupt   int // landings with no intact copy (each forces a re-ship)
	Reshipped int // shipments dispatched again after a failed verify
}

// ImageStore persists landed VM checkpoint images as mirrored blob pairs
// under per-destination-site subdirectories.
type ImageStore struct {
	fsys  journal.FS
	dir   string
	stats ImageStats
}

// NewImageStore roots an image store at dir on fsys (nil fsys means the
// real disk).
func NewImageStore(fsys journal.FS, dir string) (*ImageStore, error) {
	if fsys == nil {
		fsys = journal.Disk
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	return &ImageStore{fsys: fsys, dir: dir}, nil
}

// Dir returns the store's root directory (the scrubber target).
func (s *ImageStore) Dir() string { return s.dir }

// FS returns the filesystem the store writes through.
func (s *ImageStore) FS() journal.FS { return s.fsys }

// Stats returns the event counts so far.
func (s *ImageStore) Stats() ImageStats { return s.stats }

// imagePayloadBytes sizes the stand-in image body. The simulation ships
// whole gigabytes as accounting; the store persists a deterministic 1 KB
// stand-in whose integrity is what the restore pipeline actually verifies.
const imagePayloadBytes = 1024

// imagePayload derives the stand-in image body from the transfer ID alone,
// so a resumed coordinator re-landing the same transfer writes identical
// bytes (the SplitMix64 stream seeded at the transfer ID).
func imagePayload(xfer uint64) []byte {
	b := make([]byte, imagePayloadBytes)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], seed.Mix64(xfer+uint64(i/8)*seed.Gamma))
	}
	return b
}

func (s *ImageStore) siteDir(to int) string {
	return filepath.Join(s.dir, fmt.Sprintf("site-%d", to))
}

func imageNames(xfer uint64) (primary, mirror string) {
	base := fmt.Sprintf("img-%016x", xfer)
	return base + ".ckpt", base + ".ckmr"
}

// Land writes the mirrored image pair for a completed transfer and syncs
// the directory. An error means the landing never became durable; the
// caller treats it like a failed verify and re-ships.
func (s *ImageStore) Land(xfer uint64, to int) error {
	dir := s.siteDir(to)
	if err := s.fsys.MkdirAll(dir); err != nil {
		return err
	}
	blob := journal.EncodeBlob(xfer, imagePayload(xfer))
	p, m := imageNames(xfer)
	if err := s.writeFile(dir, p, blob); err != nil {
		return err
	}
	if err := s.writeFile(dir, m, blob); err != nil {
		return err
	}
	if err := s.fsys.SyncDir(dir); err != nil {
		return err
	}
	s.stats.Landed++
	return nil
}

func (s *ImageStore) writeFile(dir, name string, b []byte) error {
	f, err := s.fsys.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Verify reads the landed pair back and confirms at least one copy decodes
// to exactly the expected payload; a damaged sibling is rebuilt from the
// intact copy. False means no intact copy exists — the restore must not be
// counted and the shipment goes again.
func (s *ImageStore) Verify(xfer uint64, to int) bool {
	dir := s.siteDir(to)
	p, m := imageNames(xfer)
	want := imagePayload(xfer)
	good := func(name string) []byte {
		b, err := s.fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil
		}
		payload, seq, err := journal.DecodeBlob(b)
		if err != nil || seq != xfer || !bytes.Equal(payload, want) {
			return nil
		}
		return b
	}
	pb, mb := good(p), good(m)
	switch {
	case pb != nil && mb != nil:
		s.stats.Verified++
		return true
	case pb != nil:
		if s.writeFile(dir, m, pb) == nil {
			s.stats.Repaired++
		}
		s.stats.Verified++
		return true
	case mb != nil:
		if s.writeFile(dir, p, mb) == nil {
			s.stats.Repaired++
		}
		s.stats.Verified++
		return true
	default:
		s.stats.Corrupt++
		return false
	}
}

// landImages persists and verifies a completed image landing through the
// configured store. True when the restore may be counted; with no store
// configured every landing trivially verifies (the pre-integrity
// behaviour, and the reason existing replay logs stay byte-identical).
func (c *Coordinator) landImages(xfer uint64, to int) bool {
	st := c.cfg.Images
	if st == nil {
		return true
	}
	if err := st.Land(xfer, to); err != nil {
		st.stats.Corrupt++
		return false
	}
	return st.Verify(xfer, to)
}

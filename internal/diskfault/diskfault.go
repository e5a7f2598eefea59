// Package diskfault is the storage counterpart of internal/faults and
// internal/wan: a seeded fault-injecting filesystem that mounts beneath
// the journal layer (and everything built on it — the fleet migration
// log, checkpoint images, both daemons' state dirs) through the
// journal.FS interface.
//
// It injects the disk's whole failure repertoire: torn writes that
// persist only a prefix, ENOSPC-style write failures, failed fsyncs
// (which the store must treat as poisoning — fsyncgate semantics), bit
// rot that silently decays files at rest, short reads, and renames whose
// directory entry is lost before it was ever fsynced.
//
// # Seeding
//
// The package follows the seeding contract documented in internal/seed:
//
//   - Per-operation fates are stateless hashes (seed.Mix64, the same
//     finalizer as wan.ChunkFate) of (seed, path, op, per-path op count).
//     No PRNG stream survives between draws, so the same seed over the
//     same operation sequence injects bit-identical faults.
//   - Bit rot is keyed by (seed, path, file generation), where the
//     generation bumps on every create-or-replace event (O_TRUNC open,
//     rename-in). A decayed file therefore reads back decayed — the same
//     flipped bit — until something rewrites it, at which point the rot
//     lottery re-rolls: exactly how at-rest decay behaves, and exactly
//     what makes scrub-and-repair observable.
//   - The degraded window (SetDegraded) has no entropy of its own: a
//     campaign switches it on and off at planned times, like
//     faults.FlakyProxy.SetPartition.
//
// Paths are hashed relative to Config.Root so two runs in different
// temp directories draw identical fates.
package diskfault

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"insure/internal/journal"
	"insure/internal/seed"
)

// op salts keep each fault kind's hash lane disjoint.
const (
	opWrite = 0x57524954 // "WRIT"
	opSync  = 0x53594e43 // "SYNC"
	opRead  = 0x52454144 // "READ"
	opRen   = 0x52454e4d // "RENM"
	opRot   = 0x424f5254 // "BORT"
)

// Config shapes the fault mix. All rates are probabilities in [0,1];
// the zero value injects nothing.
type Config struct {
	// Seed pins every fate. Two FSes with the same Seed and Root over the
	// same operation sequence inject identical faults.
	Seed int64
	// Root is stripped from paths before hashing, so fates survive the
	// state dir moving (t.TempDir differs every run).
	Root string

	// TornWrite is the chance one Write persists only a prefix and fails.
	TornWrite float64
	// WriteFail is the chance one Write fails outright (ENOSPC-style),
	// persisting nothing.
	WriteFail float64
	// SyncFail is the chance one fsync fails. The journal must poison the
	// store when this fires.
	SyncFail float64
	// BitRot is the chance a file generation decays at rest: reads see
	// one bit flipped at a stable position until the file is rewritten.
	BitRot float64
	// ShortRead is the chance one ReadFile returns a prefix.
	ShortRead float64
	// LoseRename is the chance a rename's directory entry is lost: the
	// source vanishes and the target never appears, as if the dir fsync
	// never made it.
	LoseRename float64
}

// Stats counts the faults actually injected.
type Stats struct {
	TornWrites  int64
	WriteFails  int64
	SyncFails   int64
	RotFlips    int64
	ShortReads  int64
	LostRenames int64
}

// FS implements journal.FS with seeded fault injection over an inner FS.
type FS struct {
	cfg   Config
	inner journal.FS

	mu       sync.Mutex
	degraded bool
	gen      map[string]uint64 // file generation per rel path
	ops      map[opKey]uint64  // per-(path,op) draw counter
	rotPos   map[rotKey]uint64 // pinned flip bit per decayed generation
	stats    Stats
}

type opKey struct {
	rel string
	op  uint64
}

type rotKey struct {
	rel string
	gen uint64
}

// New wraps inner with fault injection. A nil inner mounts the real disk.
func New(cfg Config, inner journal.FS) *FS {
	if inner == nil {
		inner = journal.Disk
	}
	return &FS{
		cfg:    cfg,
		inner:  inner,
		gen:    make(map[string]uint64),
		ops:    make(map[opKey]uint64),
		rotPos: make(map[rotKey]uint64),
	}
}

// SetDegraded switches the planned disk-sickness window: while on, every
// fsync fails. Deterministic hook — campaigns flip it at planned times.
func (f *FS) SetDegraded(on bool) {
	f.mu.Lock()
	f.degraded = on
	f.mu.Unlock()
}

// Stats returns the injected-fault counts so far.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// rel normalizes a path into the stable hash key.
func (f *FS) rel(name string) string {
	r := name
	if f.cfg.Root != "" {
		if t := strings.TrimPrefix(name, f.cfg.Root); t != name {
			r = strings.TrimPrefix(t, string(os.PathSeparator))
		}
	}
	return filepath.ToSlash(r)
}

func pathHash(rel string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(rel))
	return h.Sum64()
}

// draw returns the stateless hash for the next (rel, op) event, bumping
// the per-path op counter. Callers hold f.mu.
func (f *FS) draw(rel string, op uint64) uint64 {
	k := opKey{rel: rel, op: op}
	n := f.ops[k]
	f.ops[k] = n + 1
	return seed.Mix64(uint64(f.cfg.Seed) ^ seed.Mix64(pathHash(rel)^op) ^ n)
}

// frac maps a hash to [0,1).
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// --- journal.FS ---

func (f *FS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *FS) OpenFile(name string, flag int) (journal.File, error) {
	rel := f.rel(name)
	f.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		f.gen[rel]++
	}
	f.mu.Unlock()
	inner, err := f.inner.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f, rel: rel}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	b, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	rel := f.rel(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	// Bit rot: drawn once per (path, generation) so a decayed file stays
	// consistently decayed until rewritten. The flip position is pinned on
	// the first non-empty read of a decayed generation and reused for the
	// life of the generation, so later appends don't move the flipped bit.
	if f.cfg.BitRot > 0 && len(b) > 0 {
		h := seed.Mix64(uint64(f.cfg.Seed) ^ seed.Mix64(pathHash(rel)^opRot) ^ f.gen[rel])
		if frac(h) < f.cfg.BitRot {
			rk := rotKey{rel: rel, gen: f.gen[rel]}
			pos, pinned := f.rotPos[rk]
			if !pinned {
				pos = seed.Mix64(h) % (uint64(len(b)) * 8)
				f.rotPos[rk] = pos
				f.stats.RotFlips++
			}
			if pos < uint64(len(b))*8 {
				b = append([]byte(nil), b...)
				b[pos/8] ^= 1 << (pos % 8)
			}
		}
	}
	if f.cfg.ShortRead > 0 && len(b) > 0 {
		h := f.draw(rel, opRead)
		if frac(h) < f.cfg.ShortRead {
			f.stats.ShortReads++
			b = b[:seed.Mix64(h)%uint64(len(b))]
		}
	}
	return b, nil
}

func (f *FS) Rename(oldname, newname string) error {
	relNew := f.rel(newname)
	f.mu.Lock()
	f.gen[relNew]++
	lost := false
	if f.cfg.LoseRename > 0 {
		if frac(f.draw(relNew, opRen)) < f.cfg.LoseRename {
			lost = true
			f.stats.LostRenames++
		}
	}
	f.mu.Unlock()
	if lost {
		// The dir entry evaporates: source gone, target never appears.
		return f.inner.Remove(oldname)
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

func (f *FS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	fail := f.degraded
	if !fail && f.cfg.SyncFail > 0 {
		fail = frac(f.draw(f.rel(dir)+"/", opSync)) < f.cfg.SyncFail
	}
	if fail {
		f.stats.SyncFails++
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("diskfault: dir fsync failed (%s)", dir)
	}
	return f.inner.SyncDir(dir)
}

// file interposes on writes and fsyncs.
type file struct {
	journal.File
	fs  *FS
	rel string
}

func (w *file) Write(p []byte) (int, error) {
	fs := w.fs
	fs.mu.Lock()
	h := fs.draw(w.rel, opWrite)
	roll := frac(h)
	switch {
	case roll < fs.cfg.WriteFail:
		fs.stats.WriteFails++
		fs.mu.Unlock()
		return 0, fmt.Errorf("diskfault: write failed: no space left on device (%s)", w.rel)
	case roll < fs.cfg.WriteFail+fs.cfg.TornWrite && len(p) > 0:
		fs.stats.TornWrites++
		keep := int(seed.Mix64(h) % uint64(len(p)))
		fs.mu.Unlock()
		if keep > 0 {
			if _, err := w.File.Write(p[:keep]); err != nil {
				return 0, err
			}
		}
		return keep, fmt.Errorf("diskfault: torn write at %d/%d bytes (%s)", keep, len(p), w.rel)
	default:
		fs.mu.Unlock()
		return w.File.Write(p)
	}
}

func (w *file) Sync() error {
	fs := w.fs
	fs.mu.Lock()
	fail := fs.degraded
	if !fail && fs.cfg.SyncFail > 0 {
		fail = frac(fs.draw(w.rel, opSync)) < fs.cfg.SyncFail
	}
	if fail {
		fs.stats.SyncFails++
	}
	fs.mu.Unlock()
	if fail {
		return fmt.Errorf("diskfault: fsync failed (%s)", w.rel)
	}
	return w.File.Sync()
}

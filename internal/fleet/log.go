package fleet

import (
	"fmt"
	"time"

	"insure/internal/journal"
)

// The migration log is the coordinator's durable state, built on the same
// append-only journal layer the per-site control planes use (PR 4): one
// CRC-framed record per migration event. The plants and sinks own the
// physical consequences; the log owns the accounting, so a replacement
// coordinator replays it and knows exactly what has been shipped where.
// Restore records for shipments still in flight at a crash are simply
// absent — the log then shows a checkpoint as shipped but not yet restored,
// which is the truth.
//
// The v2 records (RecXfer*) are the chunked WAN engine's journal: a
// transfer's start carries its full job manifest (IDs, sizes, remaining
// work), every control pass that moved bytes appends the new contiguous
// offset plus the bytes *attempted* (retransmissions are billed too), and
// completion/reroute/abort close it out. Replaying Start→Progress→… records
// rebuilds the in-flight transfer table byte-for-byte, which is how a
// resumed coordinator picks a 4 GB image back up mid-stream instead of
// restarting it. Replay is idempotent: records are seq-gated (a record
// already applied is skipped) and job landings deduplicate by job ID, so
// replaying the same log twice — or a healed log over a live coordinator —
// changes nothing.

// RecordKind tags a migration-log record.
type RecordKind uint8

const (
	// RecJob is a bundle of deferred batch jobs migrating between sites
	// (legacy single-shot path, WAN model absent).
	RecJob RecordKind = iota + 1
	// RecCheckpoint is a bundle of VM checkpoint images leaving a site
	// (including a re-route away from a dead destination).
	RecCheckpoint
	// RecRestore is a checkpoint bundle landing at its destination.
	RecRestore
	// RecSiteLoss marks a site dying with its in-flight resources. Under
	// the WAN failure detector it is written at lease expiry — when the
	// coordinator *declares* the site dead — not at the physical failure
	// the coordinator cannot observe.
	RecSiteLoss
	// RecXferStart opens a chunked WAN transfer: jobs (with manifest) or
	// checkpoint images, GB total, assigned a transfer ID.
	RecXferStart
	// RecXferProgress advances a transfer: Offset is the new contiguous
	// delivered byte count, Attempted the bytes spent on the link this
	// pass (delivered + dropped + corrupted), Drops/Corrupts the per-pass
	// chunk failures.
	RecXferProgress
	// RecXferDone lands a transfer at its destination.
	RecXferDone
	// RecXferReroute retargets a transfer to a new donor after repeated
	// failure; delivered bytes at the old destination (Offset) are wasted
	// and the transfer restarts from byte zero.
	RecXferReroute
	// RecXferAbort cancels a transfer whose source site died mid-stream —
	// the unsent bytes died with the site.
	RecXferAbort
)

func (k RecordKind) String() string {
	switch k {
	case RecJob:
		return "job"
	case RecCheckpoint:
		return "checkpoint"
	case RecRestore:
		return "restore"
	case RecSiteLoss:
		return "site-loss"
	case RecXferStart:
		return "xfer-start"
	case RecXferProgress:
		return "xfer-progress"
	case RecXferDone:
		return "xfer-done"
	case RecXferReroute:
		return "xfer-reroute"
	case RecXferAbort:
		return "xfer-abort"
	default:
		return fmt.Sprintf("RecordKind(%d)", int(k))
	}
}

// JobRef is one job's entry in a transfer manifest: enough identity and
// progress state to rebuild the job at the destination (or re-route it)
// without the original pointer. Remaining rides the manifest because work
// done before migration travels inside the shipped VM checkpoint.
type JobRef struct {
	ID        uint64
	Size      float64 // GB
	Remaining float64 // GB
	Arrived   time.Duration
	Origin    int
}

// Record is one migration-log entry. The Xfer/Offset/Attempted/Manifest
// fields are zero for the legacy kinds.
type Record struct {
	Day    int
	At     time.Duration
	Kind   RecordKind
	From   int // source site index (the dead site for RecSiteLoss)
	To     int // destination site index (-1 when not applicable)
	Jobs   int
	GB     float64
	Images int

	// Chunked-transfer fields (v2).
	Xfer      uint64 // transfer ID
	Offset    int64  // contiguous delivered bytes (wasted bytes for reroute)
	Attempted int64  // bytes attempted this pass, for retry billing
	Drops     int    // chunk attempts lost in transit this pass
	Corrupts  int    // chunk attempts failing CRC this pass
	Manifest  []JobRef
}

// recordVersion is the codec version of encoded records. Version 2 added
// the chunked-transfer fields; v1 records (PR 7 logs) still decode.
const recordVersion = 2

func encodeRecord(enc *journal.Encoder, r Record) {
	enc.Reset()
	enc.U8(recordVersion)
	enc.U8(uint8(r.Kind))
	enc.Int(r.Day)
	enc.Dur(r.At)
	enc.Int(r.From)
	enc.Int(r.To)
	enc.Int(r.Jobs)
	enc.F64(r.GB)
	enc.Int(r.Images)
	enc.U64(r.Xfer)
	enc.I64(r.Offset)
	enc.I64(r.Attempted)
	enc.Int(r.Drops)
	enc.Int(r.Corrupts)
	enc.Int(len(r.Manifest))
	for _, j := range r.Manifest {
		enc.U64(j.ID)
		enc.F64(j.Size)
		enc.F64(j.Remaining)
		enc.Dur(j.Arrived)
		enc.Int(j.Origin)
	}
}

func decodeRecord(b []byte) (Record, error) {
	d := journal.NewDecoder(b)
	version := d.U8()
	if version != 1 && version != recordVersion {
		return Record{}, fmt.Errorf("fleet: migration record version %d, want 1 or %d", version, recordVersion)
	}
	r := Record{
		Kind: RecordKind(d.U8()),
		Day:  d.Int(),
		At:   d.Dur(),
		From: d.Int(),
		To:   d.Int(),
		Jobs: d.Int(),
		GB:   d.F64(),
	}
	r.Images = d.Int()
	if version >= 2 {
		r.Xfer = d.U64()
		r.Offset = d.I64()
		r.Attempted = d.I64()
		r.Drops = d.Int()
		r.Corrupts = d.Int()
		n := d.Int()
		if err := d.Err(); err != nil {
			return Record{}, fmt.Errorf("fleet: corrupt migration record: %w", err)
		}
		for i := 0; i < n; i++ {
			r.Manifest = append(r.Manifest, JobRef{
				ID:        d.U64(),
				Size:      d.F64(),
				Remaining: d.F64(),
				Arrived:   d.Dur(),
				Origin:    d.Int(),
			})
		}
	}
	if err := d.Err(); err != nil {
		return Record{}, fmt.Errorf("fleet: corrupt migration record: %w", err)
	}
	return r, nil
}

// migLog is the journal-backed migration log.
type migLog struct {
	store *journal.Store
	enc   journal.Encoder
}

// openLog opens (or creates) the migration log in dir on fsys and returns
// every record already present with its journal sequence number — the
// replay set (seq-gating makes replay idempotent).
func openLog(fsys journal.FS, dir string) (*migLog, []Record, []uint64, error) {
	res, err := journal.LoadFS(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var records []Record
	for _, payload := range res.Entries {
		r, err := decodeRecord(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		records = append(records, r)
	}
	store, err := journal.OpenFS(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	return &migLog{store: store}, records, res.EntrySeqs, nil
}

func (l *migLog) append(r Record) (uint64, error) {
	encodeRecord(&l.enc, r)
	return l.store.Append(l.enc.Bytes())
}

func (l *migLog) close() error { return l.store.Close() }

// ReplayLog reads the migration log in dir without opening it for writing —
// the forensic view of what a (possibly dead) coordinator shipped.
func ReplayLog(dir string) ([]Record, error) { return ReplayLogFS(journal.Disk, dir) }

// ReplayLogFS is ReplayLog through fsys, the filesystem the log lives on.
func ReplayLogFS(fsys journal.FS, dir string) ([]Record, error) {
	res, err := journal.LoadFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	records := make([]Record, 0, len(res.Entries))
	for _, payload := range res.Entries {
		r, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
	return records, nil
}

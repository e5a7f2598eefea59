package workload

import (
	"fmt"

	"insure/internal/journal"
)

// Batch-queue state serialization, used by the fleet daemon's day-boundary
// snapshots: a killed daemon restores every site's backlog, completion
// history, and job-ID cursor bit-exactly, which is what makes its resumed
// day byte-identical to the run that never died.

const batchQueueStateVersion = 1

// JobStateBytes is the encoded size of one job written by AppendJobState:
// five 8-byte fields, a bool byte, and the 8-byte origin. Decoders of
// payloads holding jobs bound their job counts with it.
const JobStateBytes = 49

// AppendJobState serializes one job; DecodeJobState reads it back. The
// fleet layer also uses the pair for in-flight migrated jobs riding sink
// snapshots.
func AppendJobState(e *journal.Encoder, j *Job) { appendJob(e, j) }

// DecodeJobState reads one job written by AppendJobState.
func DecodeJobState(d *journal.Decoder) *Job { return decodeJob(d) }

func appendJob(e *journal.Encoder, j *Job) {
	e.U64(j.ID)
	e.F64(j.Size)
	e.F64(j.Remaining)
	e.Dur(j.Arrived)
	e.Dur(j.Done)
	e.Bool(j.Migrated)
	e.Int(j.Origin)
}

func decodeJob(d *journal.Decoder) *Job {
	return &Job{
		ID:        d.U64(),
		Size:      d.F64(),
		Remaining: d.F64(),
		Arrived:   d.Dur(),
		Done:      d.Dur(),
		Migrated:  d.Bool(),
		Origin:    d.Int(),
	}
}

// AppendState serializes the queue — pending and completed jobs, the
// processed total, and the ID cursor — onto enc.
func (q *BatchQueue) AppendState(e *journal.Encoder) {
	e.U8(batchQueueStateVersion)
	e.U64(q.idBase)
	e.U64(q.idSeq)
	e.F64(q.processed)
	e.Int(len(q.pending))
	for _, j := range q.pending {
		appendJob(e, j)
	}
	e.Int(len(q.completed))
	for _, j := range q.completed {
		appendJob(e, j)
	}
}

// RestoreState overwrites the queue from a payload written by AppendState.
func (q *BatchQueue) RestoreState(d *journal.Decoder) error {
	d.ExpectVersion(batchQueueStateVersion)
	q.idBase = d.U64()
	q.idSeq = d.U64()
	q.processed = d.F64()
	var err error
	if q.pending, err = decodeJobs(d, q.pending[:0]); err != nil {
		return err
	}
	if q.completed, err = decodeJobs(d, q.completed[:0]); err != nil {
		return err
	}
	return nil
}

// decodeJobs reads a job count and that many jobs onto dst. A count the
// rest of the payload cannot hold is rejected before any job is decoded,
// so a hostile or garbled count can neither spin nor exhaust memory.
func decodeJobs(d *journal.Decoder, dst []*Job) ([]*Job, error) {
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("workload: corrupt batch queue state: %w", err)
	}
	if n < 0 || n > d.Remaining()/JobStateBytes {
		return nil, fmt.Errorf("workload: corrupt batch queue state: %d jobs in %d bytes", n, d.Remaining())
	}
	for i := 0; i < n; i++ {
		dst = append(dst, decodeJob(d))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("workload: corrupt batch queue state: %w", err)
	}
	return dst, nil
}

// Batched submission: POST /v1/jobs/batch admits up to max_batch_jobs specs
// through ONE admission check and ONE vectored journal append, amortizing the
// serving layer's per-request overhead the same way SpawnBatch amortizes the
// runtime's per-spawn overhead (Eq. 3/4: a fixed cost paid once per batch
// instead of once per job moves the effective minimum grain left). A single
// POST /v1/jobs is a batch of one through the same admission core.
//
// Admission is partial by design: the batch admits a prefix bounded by the
// queue's remaining capacity and sheds the suffix with per-item 429 +
// Retry-After, so one oversized batch degrades into "some work now, retry the
// rest" instead of all-or-nothing.
package taskserve

import (
	"fmt"
	"time"
)

// batchItem is one per-spec outcome of admission: exactly one of job
// (admitted, or replayed via idempotency key) or shed is set.
type batchItem struct {
	job  *Job
	shed *shedError
}

// SubmitBatch validates, admits, and enqueues a batch of jobs under one
// admission check and one journal group commit. Results are index-aligned
// with specs. Only SubmitBatch moves the /server/batch/* counters; Submit
// runs the same admission core for a batch of one.
func (s *Server) SubmitBatch(specs []JobSpec) []batchItem {
	results := make([]batchItem, len(specs))
	admitted, partial := s.admit(specs, results)
	if admitted > 0 {
		s.batchSubmitted.Inc()
		s.batchJobs.Add(int64(admitted))
	}
	if partial {
		s.batchSheds.Inc()
	}
	return results
}

// admit is the one admission core behind Submit and SubmitBatch. Idempotent
// replays return the retained job even while draining, admitted jobs are
// journaled before the call returns, and a full queue sheds with 429 — but
// the admission check, the journal fsync, and the queue-mutex acquisition are
// each paid once for the whole batch. It fills results (index-aligned with
// specs) and reports how many jobs it freshly admitted and whether the queue
// cut shed part of them.
func (s *Server) admit(specs []JobSpec, results []batchItem) (admitted int, partial bool) {
	// Idempotency replays resolve first, without admission — a mesh gateway
	// re-forwarding after a timeout must get the jobs the node already
	// holds, never a second run.
	fresh := 0
	for i := range specs {
		specs[i] = specs[i].withDefaults()
		if j, ok := s.store.getByKey(specs[i].IdempotencyKey); ok {
			results[i].job = j
			continue
		}
		fresh++
	}
	if fresh == 0 {
		return 0, false
	}

	shedFresh := func(se *shedError) {
		for i := range results {
			if results[i].job == nil {
				results[i].shed = se
				s.shed.Inc()
			}
		}
	}
	if s.draining.Load() {
		shedFresh(&shedError{status: 503, reason: "draining", retryAfter: s.cfg.RetryAfter})
		return 0, false
	}
	// One admission check covers the batch: the queue-capacity prefix cut
	// below is exact regardless, and the idle-rate/backlog signals move on
	// sampling intervals far coarser than one batch.
	if se := s.adm.check(); se != nil {
		shedFresh(se)
		return 0, false
	}

	added := make([]int, 0, fresh)
	jobs := make([]*Job, 0, fresh)
	for i := range specs {
		if results[i].job != nil {
			continue
		}
		var deadline time.Time
		d := time.Duration(specs[i].DeadlineMillis) * time.Millisecond
		if d == 0 {
			d = s.cfg.DefaultDeadline
		}
		if d > 0 {
			deadline = time.Now().Add(d)
		}
		job, dup := s.store.add(specs[i], deadline)
		results[i].job = job
		if dup {
			continue // a concurrent duplicate key won the store race; replay
		}
		added = append(added, i)
		jobs = append(jobs, job)
	}
	if len(added) == 0 {
		return 0, false
	}

	// rescind takes admitted-but-unqueued jobs back out: off the store, out
	// of the journal (when dropJournal), and answered with se.
	rescind := func(from int, se *shedError, dropJournal bool) {
		for k := from; k < len(added); k++ {
			s.store.remove(jobs[k].ID())
			if dropJournal {
				s.journalDrop(jobs[k].ID())
			}
			results[added[k]] = batchItem{shed: se}
			s.shed.Inc()
		}
	}

	// One vectored append journals every admit record — one group-commit
	// fsync for N jobs. Durability must be bound before any 202 goes out:
	// an acknowledged job the journal never saw would vanish in a crash.
	if s.wal != nil {
		if err := s.journalAdmitBatch(jobs); err != nil {
			rescind(0, &shedError{status: 503, reason: "journal unavailable", retryAfter: s.cfg.RetryAfter}, false)
			return 0, false
		}
	}

	// One queue-mutex acquisition enqueues the whole batch. The admission
	// check and these sends race against concurrent submitters and Drain;
	// the non-blocking sends keep the MaxQueuedJobs bound exact and never
	// block a request handler. The first full send marks the
	// partial-admission cut — that item and the entire suffix shed, because
	// a queue that just refused item k cannot have room for item k+1 either.
	s.queueMu.Lock()
	if s.draining.Load() {
		s.queueMu.Unlock()
		rescind(0, &shedError{status: 503, reason: "draining", retryAfter: s.cfg.RetryAfter}, s.wal != nil)
		return 0, false
	}
sends:
	for _, job := range jobs {
		select {
		case s.queue <- job:
			admitted++
		default:
			break sends
		}
	}
	s.queueMu.Unlock()

	if admitted < len(added) {
		rescind(admitted, &shedError{
			status:     429,
			reason:     fmt.Sprintf("job queue full (limit %d)", s.cfg.MaxQueuedJobs),
			retryAfter: s.cfg.RetryAfter,
		}, s.wal != nil)
	}
	for _, job := range jobs[:admitted] {
		s.submitted.Inc()
		if job.spec.TraceContext != "" {
			s.traced.Inc()
		}
	}
	return admitted, admitted > 0 && admitted < len(added)
}

package mesh

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"taskgrain/internal/trace"
)

// nodeResponse is one relayed node reply: the HTTP status, the decoded JSON
// body (nil if undecodable), and the Retry-After hint if present.
type nodeResponse struct {
	status     int
	body       map[string]any
	retryAfter time.Duration
}

// doJSON performs one request against a node and decodes the JSON reply.
// span, when valid, rides the Taskgrain-Trace header so the node stamps the
// job with the cross-hop trace identity.
func (m *Mesh) doJSON(ctx context.Context, method, url string, body []byte, span trace.SpanContext) (nodeResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nodeResponse{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span.Valid() {
		req.Header.Set(trace.Header, span.String())
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nodeResponse{}, err
	}
	defer resp.Body.Close()
	out := nodeResponse{status: resp.StatusCode}
	out.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nodeResponse{}, err
	}
	var v map[string]any
	if json.Unmarshal(raw, &v) == nil {
		out.body = v
	}
	return out, nil
}

// parseRetryAfter interprets a Retry-After header value as a delay: the
// delta-seconds form, or the RFC 9110 HTTP-date form relative to now.
// Unparseable or non-positive values read as "no hint".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// submit admits one job into the mesh: parse the spec, mint the gateway job
// (idempotency key, trace span), and run the placement loop with it as a
// batch of one. parent is the client's incoming trace context. ctx is the
// client request's context: a client that hangs up mid-placement unwinds the
// loop instead of serving out the remaining backoff. It returns the HTTP
// status, the response payload for the client, and the Retry-After hint to
// relay when the whole mesh shed.
func (m *Mesh) submit(ctx context.Context, raw []byte, parent trace.SpanContext) (int, any, time.Duration) {
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		return http.StatusBadRequest, errBody(fmt.Sprintf("bad job spec: %v", err)), 0
	}
	it, err := m.mint(spec, parent)
	if err != nil {
		return http.StatusBadRequest, errBody(err.Error()), 0
	}
	m.place(ctx, []*placement{it}, false, 0, false)
	if it.view == nil {
		m.jobs.remove(it.job.id)
		m.rejected.Inc()
		return it.refusal.status, it.refusal.body, it.refusal.retryAfter
	}
	m.submitted.Inc()
	return http.StatusAccepted, m.augment(it.view, it.job), 0
}

// noteSpill accounts one bounced submission attempt against a node.
func (m *Mesh) noteSpill(n *Node, job *meshJob) {
	n.spills.Inc()
	m.spillsC.Inc()
	m.traceHop(trace.SpillHop, n, job)
	job.mu.Lock()
	job.spills++
	job.mu.Unlock()
}

// backoff waits between spillover passes: the Retry-After hint (default
// 100ms when nodes gave none), capped by MaxBackoff, jittered into
// [1/2, 1)× so synchronized retries from many clients decorrelate. The wait
// ends early when ctx does — a client that hung up must unwind promptly, not
// after the full backoff — reported as false so the caller can stop.
func (m *Mesh) backoff(ctx context.Context, hint time.Duration) bool {
	base := hint
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if base > m.cfg.MaxBackoff {
		base = m.cfg.MaxBackoff
	}
	d := base/2 + time.Duration(m.rng.Int63n(int64(base/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// relayStatus forwards one status poll to the job's current node, hedging
// long-polls and failing over when the node is gone. rawQuery carries the
// client's wait/timeout parameters verbatim; waitTimeout is the parsed
// long-poll bound (0 for a plain poll).
func (m *Mesh) relayStatus(job *meshJob, rawQuery string, waitTimeout time.Duration) (int, any) {
	for attempt := 0; attempt <= m.cfg.MaxSubmitAttempts; attempt++ {
		n, nodeID, epoch := job.placement()
		if n == nil {
			return http.StatusServiceUnavailable, errBody("job has no placement")
		}
		url := n.base + "/v1/jobs/" + nodeID
		if rawQuery != "" {
			url += "?" + rawQuery
		}
		resp, err := m.hedgedGet(n, url, nodeID, waitTimeout)
		switch {
		case err == nil && resp.status == http.StatusOK:
			if job.observe(resp.body) {
				m.terminalC.Inc()
				m.traceSpan(trace.PhaseEnd, n, job)
				if m.wal != nil {
					m.journalTerm(job)
				}
			}
			return http.StatusOK, m.augment(resp.body, job)
		case err == nil && resp.status == http.StatusNotFound:
			// The node restarted (or evicted the job): its jobStore no
			// longer knows the ID. If we already saw a terminal state,
			// serve the cached view; otherwise treat it like a death.
			if status, body, ok := m.cachedView(job); ok {
				return status, body
			}
			if !m.failover(job, epoch) {
				return m.unavailable(n)
			}
		case err != nil:
			if status, body, ok := m.cachedView(job); ok {
				return status, body
			}
			if !m.failover(job, epoch) {
				return m.unavailable(n)
			}
		default:
			if resp.body == nil {
				resp.body = errBody(fmt.Sprintf("node %s answered %d", n.name, resp.status))
			}
			return resp.status, resp.body
		}
	}
	return http.StatusServiceUnavailable, errBody("job placement unstable; retry")
}

// cachedView serves the last observed node response if the job already
// reached a terminal state — a node dying *after* finishing a job must not
// un-finish it.
func (m *Mesh) cachedView(job *meshJob) (int, any, bool) {
	_, _, _, terminal, _, lastView := job.snapshot()
	if terminal && lastView != nil {
		return http.StatusOK, m.augment(lastView, job), true
	}
	return 0, nil, false
}

// unavailable is the relay verdict when failover found no takers.
func (m *Mesh) unavailable(n *Node) (int, any) {
	return http.StatusServiceUnavailable,
		errBody(fmt.Sprintf("node %s unreachable and no failover target admitted the job; retry", n.name))
}

// hedgedGet performs the status GET. For long-polls it hedges: if the
// primary request produces nothing within HedgeDelay, a cheap no-wait probe
// checks whether the node is still alive — a dead node fails the probe in
// milliseconds instead of wedging the client for the whole long-poll
// timeout, and a live node just keeps the primary running.
func (m *Mesh) hedgedGet(n *Node, url, nodeID string, waitTimeout time.Duration) (nodeResponse, error) {
	budget := m.cfg.RequestTimeout
	if waitTimeout > 0 {
		budget += waitTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	type result struct {
		resp nodeResponse
		err  error
	}
	primary := make(chan result, 1)
	go func() {
		r, err := m.doJSON(ctx, http.MethodGet, url, nil, trace.SpanContext{})
		primary <- result{r, err}
	}()

	if waitTimeout <= 0 || m.cfg.HedgeDelay <= 0 {
		r := <-primary
		return r.resp, r.err
	}

	hedge := time.NewTimer(m.cfg.HedgeDelay)
	defer hedge.Stop()
	for {
		select {
		case r := <-primary:
			return r.resp, r.err
		case <-hedge.C:
			probeCtx, probeCancel := context.WithTimeout(context.Background(), m.cfg.RequestTimeout)
			_, err := m.doJSON(probeCtx, http.MethodGet, n.base+"/v1/jobs/"+nodeID, nil, trace.SpanContext{})
			probeCancel()
			if err != nil {
				// The node is gone; abandon the long-poll now.
				cancel()
				<-primary
				return nodeResponse{}, fmt.Errorf("mesh: %s died during long-poll: %w", n.name, err)
			}
			// Node alive — keep waiting on the primary, reprobing each
			// HedgeDelay in case it dies later in the poll.
			hedge.Reset(m.cfg.HedgeDelay)
		}
	}
}

// failover re-places a job whose node died mid-flight: mark the node
// unreachable, resubmit the spec (same idempotency key — if the node was
// merely slow and still holds the job, a future heartbeat revives it and
// the key prevents a duplicate run on *that* node) to the next-best node,
// and bump the retry count. Concurrent pollers serialize on failoverMu so
// exactly one resubmission happens per placement epoch. Reports whether the
// job has a live placement afterwards.
func (m *Mesh) failover(job *meshJob, fromEpoch int) bool {
	job.failoverMu.Lock()
	defer job.failoverMu.Unlock()
	old, _, epoch := job.placement()
	if epoch != fromEpoch {
		return true // a concurrent poller already re-placed it
	}
	if old != nil {
		old.markUnreachable(m.cfg.DownAfter)
	}
	it := &placement{job: job, refusal: noRoute()}
	m.place(context.Background(), []*placement{it}, false, fromEpoch, true)
	if it.view == nil {
		return false
	}
	if old != nil {
		old.failovers.Inc()
	}
	m.failovers.Inc()
	return true
}

// relayCancel forwards a cancellation to the job's current node.
func (m *Mesh) relayCancel(job *meshJob) (int, any) {
	n, nodeID, _ := job.placement()
	if n == nil {
		return http.StatusServiceUnavailable, errBody("job has no placement")
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.RequestTimeout)
	defer cancel()
	resp, err := m.doJSON(ctx, http.MethodDelete, n.base+"/v1/jobs/"+nodeID, nil, trace.SpanContext{})
	if err != nil {
		n.markUnreachable(m.cfg.DownAfter)
		return http.StatusBadGateway, errBody(fmt.Sprintf("node %s unreachable: %v", n.name, err))
	}
	if resp.status == http.StatusOK {
		if job.observe(resp.body) {
			m.terminalC.Inc()
			m.traceSpan(trace.PhaseEnd, n, job)
			if m.wal != nil {
				m.journalTerm(job)
			}
		}
		return http.StatusOK, m.augment(resp.body, job)
	}
	if resp.body == nil {
		resp.body = errBody(fmt.Sprintf("node %s answered %d", n.name, resp.status))
	}
	return resp.status, resp.body
}

// augment rewrites a node job view for the mesh client: the ID becomes the
// mesh-scoped ID (node-local IDs collide across nodes), and a "mesh"
// object surfaces the placement, the failover retry count, the submission
// spill count, and the trace ID shared by every hop of the job.
func (m *Mesh) augment(view map[string]any, job *meshJob) map[string]any {
	node, retries, spills, _, _, _ := job.snapshot()
	out := make(map[string]any, len(view)+2)
	for k, v := range view {
		out[k] = v
	}
	out["id"] = job.id
	meshView := map[string]any{
		"node":    node,
		"retries": retries,
		"spills":  spills,
	}
	if span := job.traceSpan(); span.Valid() {
		meshView["trace_id"] = fmt.Sprintf("%016x", span.TraceID)
	}
	out["mesh"] = meshView
	return out
}

func errBody(msg string) map[string]any {
	return map[string]any{"error": msg}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

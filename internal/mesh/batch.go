// Gateway placement: every submission — POST /v1/jobs, POST /v1/jobs/batch,
// and a failover re-placement — runs through one spillover loop over a list
// of items, a single job being a batch of one. Each pass groups the unplaced
// items by their best untried node and forwards each group as ONE upstream
// request, then applies the per-item verdicts through a single switch. The
// amortization composes across layers — the client pays one gateway
// round-trip for N jobs, each node pays one admission check and one journal
// group commit per sub-batch — so the fixed network cost per job shrinks by
// the split factor at every hop.
//
// The wire form of a hop depends only on the endpoint the client called:
// POST /v1/jobs and failover send the one spec to the node's /v1/jobs with
// the hop span in the Taskgrain-Trace header; POST /v1/jobs/batch sends
// {"jobs":[...]} to /v1/jobs/batch with a trace_context in each item.
package mesh

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"taskgrain/internal/trace"
)

// placement tracks one gateway job through the placement loop.
type placement struct {
	idx      int            // position in the client's jobs array (batch only)
	job      *meshJob       // gateway job, minted before placement
	spec     map[string]any // parsed spec; batch hops inject trace_context per item
	tried    []*Node        // nodes tried since the last backoff
	pin      *Node          // admitted without a decodable id: replay this node next
	attempts int            // node tries consumed (bounded by MaxSubmitAttempts)
	view     map[string]any // the admitting node's job view once placed
	refusal  nodeResponse   // last refusal; relayed if the item never lands
	done     bool           // resolved (placed, rejected, or exhausted)
}

// noRoute is the refusal of an item that never reached a node.
func noRoute() nodeResponse {
	return nodeResponse{status: http.StatusServiceUnavailable, body: errBody("no routable mesh nodes")}
}

// mint registers one parsed client spec as a gateway job: a mesh ID, an
// idempotency key (mesh-scoped unless the client chose one, so a failover
// resubmission replays instead of re-running if the suspect node turns out
// to be alive), and a trace span — a child of the client's parent when
// valid, otherwise a fresh root. job.spec is the hop-independent replay form
// (key included, no per-hop trace context).
func (m *Mesh) mint(spec map[string]any, parent trace.SpanContext) (*placement, error) {
	if spec == nil {
		return nil, errors.New("null job spec")
	}
	kind, _ := spec["kind"].(string)
	key, _ := spec["idempotency_key"].(string)
	job := m.jobs.add(kind, key, nil)
	if key == "" {
		key = fmt.Sprintf("mesh-%s-%s", m.id, job.id)
	}
	spec["idempotency_key"] = key
	span := trace.NewSpanContext()
	if parent.Valid() {
		span = parent.Child()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		m.jobs.remove(job.id)
		return nil, fmt.Errorf("bad job spec: %v", err)
	}
	job.mu.Lock()
	job.key, job.spec, job.span = key, body, span
	job.mu.Unlock()
	return &placement{job: job, spec: spec, refusal: noRoute()}, nil
}

// submitBatch admits a batch of jobs through the mesh, forwarding each pass's
// per-node groups as upstream batch calls and stitching the per-item results
// back in request order. Returns the HTTP status, the response payload, and
// the Retry-After hint when nothing at all was admitted.
func (m *Mesh) submitBatch(ctx context.Context, raw []byte, parent trace.SpanContext) (int, any, time.Duration) {
	var req struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return http.StatusBadRequest, errBody(fmt.Sprintf("bad batch: %v", err)), 0
	}
	if len(req.Jobs) == 0 {
		return http.StatusBadRequest, errBody(`empty batch (want {"jobs":[spec,...]})`), 0
	}
	if len(req.Jobs) > m.cfg.MaxBatchJobs {
		return http.StatusBadRequest,
			errBody(fmt.Sprintf("batch of %d exceeds max_batch_jobs %d", len(req.Jobs), m.cfg.MaxBatchJobs)), 0
	}

	results := make([]map[string]any, len(req.Jobs))
	items := make([]*placement, 0, len(req.Jobs))
	for i, spec := range req.Jobs {
		it, err := m.mint(spec, parent)
		if err != nil {
			results[i] = map[string]any{"status": http.StatusBadRequest, "error": err.Error()}
			continue
		}
		it.idx = i
		items = append(items, it)
	}
	m.place(ctx, items, true, 0, false)

	admitted, shedCount := 0, 0
	status := http.StatusBadRequest
	var retryAfter time.Duration
	for _, it := range items {
		if it.view != nil {
			m.submitted.Inc()
			results[it.idx] = map[string]any{"status": http.StatusAccepted, "job": m.augment(it.view, it.job)}
			admitted++
			continue
		}
		m.jobs.remove(it.job.id)
		m.rejected.Inc()
		res := map[string]any{"status": it.refusal.status}
		if msg, ok := it.refusal.body["error"].(string); ok {
			res["error"] = msg
		}
		if isShed(it.refusal.status) {
			ra := maxDuration(it.refusal.retryAfter, time.Second)
			res["retry_after_s"] = retrySeconds(ra)
			if shedCount == 0 {
				status, retryAfter = it.refusal.status, ra
			}
			shedCount++
		}
		results[it.idx] = res
	}
	if admitted > 0 {
		status, retryAfter = http.StatusAccepted, 0
	}
	return status, map[string]any{"admitted": admitted, "shed": shedCount, "results": results}, retryAfter
}

// place runs the spillover placement loop: each pass groups the unresolved
// items by the node they are pinned to or else their best untried routable
// node, and forwards each group as one upstream request. Intra-pass
// spillover is free of delay; only when every pending item has tried the
// whole routable set (or none is routable) does the loop back off — the
// smallest Retry-After hint seen, jittered and capped by MaxBackoff — and
// start a fresh pass. Every node try costs the item one of its
// MaxSubmitAttempts, and so does a pass that finds no routable node, so the
// bound holds when the whole mesh is down or draining. A canceled ctx
// resolves every pending item with its last refusal; failover passes
// context.Background() because a poller hanging up must never abort the
// re-placement of a job that is already admitted.
//
// batch selects the wire form (see the file comment); without it, items
// must hold exactly one job. fromEpoch and isFailover are passed to
// meshJob.place. On return every item is resolved: placed (view set) or
// refused (refusal set).
func (m *Mesh) place(ctx context.Context, items []*placement, batch bool, fromEpoch int, isFailover bool) {
	pending := slices.Clone(items) // filtered in place below; items keeps request order
	var hint, lastHint time.Duration
	firstPass := true
	resolve := func(its ...*placement) {
		for _, it := range its {
			it.refusal.retryAfter = maxDuration(lastHint, time.Second)
			it.done = true
		}
	}
	for len(pending) > 0 {
		// Group the pending items by target. Items of different kinds may
		// rank different best nodes, so one client batch fans out into one
		// sub-batch per target.
		groups := make(map[*Node][]*placement)
		var order []*Node
		for _, it := range pending {
			n := m.target(it)
			if n == nil {
				continue
			}
			if groups[n] == nil {
				order = append(order, n)
			}
			groups[n] = append(groups[n], it)
		}
		if batch && firstPass {
			m.batchSplit.Store(int64(len(order)))
		}
		firstPass = false

		canceled := false
		if len(order) == 0 {
			// No untried routable node for any item. The empty round still
			// consumes an attempt per item — otherwise nothing would bound
			// the loop and it would spin in backoff forever, wedging the
			// client's POST (and, via failover, the job's failoverMu).
			for _, it := range pending {
				it.attempts++
				it.refusal = noRoute()
			}
		}
		for _, n := range order {
			h, ok := m.forward(ctx, n, groups[n], batch, fromEpoch, isFailover)
			if h > 0 && (hint == 0 || h < hint) {
				hint = h
			}
			if !ok {
				canceled = true
				break
			}
		}
		if hint > 0 {
			lastHint = hint
		}

		still := pending[:0]
		for _, it := range pending {
			switch {
			case it.done:
			case it.attempts >= m.cfg.MaxSubmitAttempts:
				resolve(it)
			default:
				still = append(still, it)
			}
		}
		pending = still
		if canceled {
			// Client hung up: the nodes are fine, stop forwarding.
			resolve(pending...)
			return
		}
		if len(pending) == 0 {
			return
		}

		// Back off and start a fresh pass only once every pending item has
		// tried the whole routable set.
		if !slices.ContainsFunc(pending, func(it *placement) bool { return m.target(it) != nil }) {
			for _, it := range pending {
				it.tried = it.tried[:0]
			}
			if !m.backoff(ctx, hint) {
				resolve(pending...)
				return
			}
			hint = 0
		}
	}
}

// target is the node an item's next try goes to: the node it is pinned to,
// else its best-ranked routable node not yet tried this pass; nil when none.
func (m *Mesh) target(it *placement) *Node {
	if it.pin != nil {
		return it.pin
	}
	for _, n := range m.router.rank(it.job.kind) {
		if !slices.Contains(it.tried, n) {
			return n
		}
	}
	return nil
}

// forward sends one group to node n and applies each item's verdict:
// admitted items are placed, shed items stay pending with n marked tried,
// an admit without a decodable id pins the item to n for a replay (the
// idempotency key turns it into a lookup of the job n already holds, where
// re-placing elsewhere would orphan that run), and spec-level rejections are
// final — no other node would answer differently. Returns the smallest
// Retry-After hint seen (0 for none) and false when ctx was canceled.
func (m *Mesh) forward(ctx context.Context, n *Node, group []*placement, batch bool, fromEpoch int, isFailover bool) (time.Duration, bool) {
	for _, it := range group {
		it.attempts++
		it.tried = append(it.tried, n)
		it.pin = nil
	}
	verdicts, err := m.send(ctx, n, group, batch)
	if err != nil {
		if ctx.Err() != nil {
			// The failure is the client's, not the node's: it is not
			// marked unreachable.
			return 0, false
		}
		n.markUnreachable(m.cfg.DownAfter)
		for _, it := range group {
			m.noteSpill(n, it.job)
			it.refusal = nodeResponse{
				status: http.StatusServiceUnavailable,
				body:   errBody(fmt.Sprintf("node %s unreachable", n.name)),
			}
		}
		return 0, true
	}

	hint := time.Duration(0)
	for k, it := range group {
		v := verdicts[k]
		switch {
		case v.status == http.StatusAccepted:
			if id, _ := v.body["id"].(string); id == "" {
				it.pin = n
				it.refusal = nodeResponse{
					status: http.StatusBadGateway,
					body:   errBody(fmt.Sprintf("node %s admitted the job but returned no id", n.name)),
				}
				continue
			}
			m.settle(it, n, v.body, fromEpoch, isFailover)
		case isShed(v.status):
			// The shed path this loop exists for: spill over to the
			// next-best node, remembering the backoff hint.
			m.noteSpill(n, it.job)
			if v.retryAfter > 0 && (hint == 0 || v.retryAfter < hint) {
				hint = v.retryAfter
			}
			it.refusal = nodeResponse{
				status: http.StatusServiceUnavailable,
				body:   errBody(fmt.Sprintf("all mesh nodes shed (last: %s with %d)", n.name, v.status)),
			}
		default:
			if v.body == nil {
				v.body = errBody(fmt.Sprintf("node %s refused with %d", n.name, v.status))
			}
			it.refusal = v
			it.done = true
		}
	}
	return hint, true
}

// settle records an admitted item's placement: journal, trace, and routing
// counters.
func (m *Mesh) settle(it *placement, n *Node, view map[string]any, fromEpoch int, isFailover bool) {
	it.view = view
	it.done = true
	id, _ := view["id"].(string)
	if !it.job.place(n, id, fromEpoch, isFailover) {
		// A concurrent failover re-placed the job first. Placements are
		// serialized by failoverMu precisely so this branch stays
		// unreachable; it is kept as a guard.
		return
	}
	if m.wal != nil {
		m.journalPlace(it.job)
	}
	hop := trace.Route
	if isFailover {
		hop = trace.FailoverHop
	}
	m.traceHop(hop, n, it.job)
	m.traceSpan(trace.PhaseBegin, n, it.job)
	n.routed.Inc()
}

// send performs one upstream request for group and decodes the reply into
// one verdict per item: the status, the job view (202) or error body, and
// the Retry-After hint.
func (m *Mesh) send(ctx context.Context, n *Node, group []*placement, batch bool) ([]nodeResponse, error) {
	tryCtx, cancel := context.WithTimeout(ctx, m.cfg.RequestTimeout)
	defer cancel()
	if !batch {
		// Each hop gets its own child span of the job's root context, so
		// the node-side trace_context distinguishes retries of the same job
		// while sharing one trace ID.
		job := group[0].job
		resp, err := m.doJSON(tryCtx, http.MethodPost, n.base+"/v1/jobs", job.spec, job.traceSpan().Child())
		if err != nil {
			return nil, err
		}
		return []nodeResponse{resp}, nil
	}

	verdicts := make([]nodeResponse, len(group))
	specs := make([]map[string]any, len(group))
	for k, it := range group {
		// One HTTP request carries many items, so the per-hop child span
		// rides in each spec body instead of the Taskgrain-Trace header.
		it.spec["trace_context"] = it.job.traceSpan().Child().String()
		specs[k] = it.spec
	}
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		for k := range verdicts {
			verdicts[k] = nodeResponse{status: http.StatusBadRequest, body: errBody(fmt.Sprintf("bad job spec: %v", err))}
		}
		return verdicts, nil
	}
	resp, err := m.doJSON(tryCtx, http.MethodPost, n.base+"/v1/jobs/batch", body, trace.SpanContext{})
	m.batchForwarded.Inc()
	if err != nil {
		return nil, err
	}

	if items := itemResults(resp); len(items) == len(group) {
		for k := range verdicts {
			rm, _ := items[k].(map[string]any)
			v := nodeResponse{
				status:     int(asFloat(rm["status"])),
				retryAfter: time.Duration(asFloat(rm["retry_after_s"])) * time.Second,
			}
			if v.status == http.StatusAccepted {
				v.body, _ = rm["job"].(map[string]any)
			} else if msg, _ := rm["error"].(string); msg != "" {
				v.body = errBody(msg)
			}
			verdicts[k] = v
		}
		return verdicts, nil
	}
	// A reply without index-aligned per-item results answers every item
	// alike. A mangled 202 still means the node admitted the jobs, so each
	// item replays that node; a shed is a shed; anything else is relayed,
	// a mangled non-error reply reading as a gateway-level anomaly.
	ref := resp
	switch {
	case ref.status == http.StatusAccepted:
		ref.body = nil
	case isShed(ref.status):
	case ref.status < http.StatusBadRequest || ref.body == nil:
		ref = nodeResponse{
			status: http.StatusBadGateway,
			body:   errBody(fmt.Sprintf("node %s returned an undecodable batch reply (%d)", n.name, resp.status)),
		}
	}
	for k := range verdicts {
		verdicts[k] = ref
	}
	return verdicts, nil
}

// isShed reports whether a node status is a load shed (retry elsewhere or
// later) rather than a verdict on the spec.
func isShed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// itemResults extracts the per-item results array from a node batch reply,
// nil when absent or not an array.
func itemResults(resp nodeResponse) []any {
	if resp.body == nil {
		return nil
	}
	items, _ := resp.body["results"].([]any)
	return items
}

// asFloat reads a decoded JSON number (float64 under encoding/json), 0 for
// anything else.
func asFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

// retrySeconds renders a Retry-After duration as whole seconds, minimum 1.
func retrySeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

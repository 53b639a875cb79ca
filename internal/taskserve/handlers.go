package taskserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"taskgrain/internal/introspect"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

// maxBodyBytes bounds a job submission body; the spec is a handful of
// scalars, so anything bigger is a client bug or abuse.
const maxBodyBytes = 1 << 16

// maxBatchBodyBytes bounds a batch submission body: max_batch_jobs specs of
// a few hundred bytes each fit comfortably in 1 MiB.
const maxBatchBodyBytes = 1 << 20

// waitTimeoutDefault and waitTimeoutMax bound GET ?wait=true long-polls.
const (
	waitTimeoutDefault = 30 * time.Second
	waitTimeoutMax     = 5 * time.Minute
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a job (202, or 429/503 + Retry-After)
//	POST   /v1/jobs/batch     submit up to max_batch_jobs specs as one batch
//	                          ({"jobs":[spec,...]}); one admission check and
//	                          one journal group commit cover the batch, with
//	                          partial admission — per-item 202/429 results,
//	                          202 overall when anything was admitted
//	GET    /v1/jobs           list retained jobs
//	GET    /v1/jobs/{id}      job status; ?wait=true[&timeout=30s] long-polls
//	DELETE /v1/jobs/{id}      request cancellation
//	GET    /v1/stats          service stats
//	GET    /healthz           liveness + drain state (JSON {"status":"ok"}
//	                          or {"status":"draining"}, always 200 — the mesh
//	                          registry reads the body to stop routing to a
//	                          draining node before a submit bounces off 503)
//	GET    /metrics           the live registry as OpenMetrics text
//	GET    /telemetry/alerts  idle-rate watchdog verdict (JSON)
//	GET    /telemetry/series  ring time series; ?name=/server/idle-rate
//	                          [&n=60][&window=2s] adds a window delta/rate
//	GET    /control/decisions control-plane decision log (mode + entries)
//	POST   /control/hint      externally push per-kind grains
//	                          ({"grains":{"stencil1d":4096},"source":"..."});
//	                          each hint applies, stays advisory, or is vetoed
//	                          per the engine's guardrails
//	/debug/...                the introspect counter surface (live registry)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if s.draining.Load() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /telemetry/alerts", s.handleAlerts)
	mux.HandleFunc("GET /telemetry/series", s.handleSeries)
	mux.HandleFunc("GET /control/decisions", s.handleControlDecisions)
	mux.HandleFunc("POST /control/hint", s.handleControlHint)
	mux.Handle("/debug/", http.StripPrefix("/debug", introspect.NewHandler(s.rt.Counters())))
	return mux
}

// handleMetrics renders every registered counter as OpenMetrics text, the
// node's own listen address as the node label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeOpenMetrics(w, telemetry.PointsFromRegistry(s.rt.Counters(), map[string]string{"node": s.cfg.Addr}))
}

// handleControlDecisions serves the control plane's decision log: the mode
// the engine runs under and every recorded actuation/advisory/veto, oldest
// first.
func (s *Server) handleControlDecisions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":      string(s.eng.Mode()),
		"decisions": s.eng.Decisions(),
	})
}

// handleControlHint accepts externally pushed per-kind grains — a mesh
// gateway's cluster consensus, or an operator's manual steer. Every hint is
// recorded; whether it actuates is the engine's call (mode, guardrails).
func (s *Server) handleControlHint(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Grains map[string]int `json:"grains"`
		Source string         `json:"source"`
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad hint body: "+err.Error())
		return
	}
	if len(req.Grains) == 0 {
		writeError(w, http.StatusBadRequest, "hint carries no grains")
		return
	}
	source := req.Source
	if source == "" {
		source = "external"
	}
	applied := map[string]int{}
	vetoed := map[string]string{}
	for kind, grain := range req.Grains {
		if ok, reason := s.eng.ApplyHint(kind, grain, source); ok {
			applied[kind] = s.eng.Grain(kind)
		} else {
			vetoed[kind] = reason
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":    string(s.eng.Mode()),
		"applied": applied,
		"vetoed":  vetoed,
	})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"alerts": []telemetry.Alert{s.watchdog.Current()},
	})
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?name= counter path (e.g. /server/idle-rate)")
		return
	}
	n := 60
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad n "+strconv.Quote(v))
			return
		}
		n = parsed
	}
	ring := s.sampler.Ring()
	out := map[string]any{
		"name":        name,
		"interval_ns": s.sampler.Interval(),
		"points":      ring.Series(name, n),
	}
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad window "+strconv.Quote(v)+" (want a Go duration, e.g. 2s)")
			return
		}
		if delta, elapsed, ok := ring.Delta(name, d); ok {
			out["window_delta"] = delta
			out["window_elapsed_ns"] = elapsed
		}
		if rate, ok := ring.Rate(name, d); ok {
			out["window_rate_per_sec"] = rate
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeBody decodes a size-bounded JSON request body, refusing unknown
// fields so a misspelled knob is an error rather than a silent default.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// traceHeader returns the request's Taskgrain-Trace context, "" when absent
// or malformed — a bad header leaves the job untraced rather than failing
// the submission.
func traceHeader(r *http.Request) string {
	if sc, ok := trace.ParseSpanContext(r.Header.Get(trace.Header)); ok {
		return sc.String()
	}
	return ""
}

// prepareSpec is the per-item step both submit endpoints share. The
// Taskgrain-Trace header is the canonical carrier of the cross-hop trace
// identity (the gateway sets it on every single-job hop), so a valid header
// overrides any body-carried context; a gateway forwarding a batch sends no
// header and embeds per-item contexts instead.
func (s *Server) prepareSpec(spec JobSpec, header string) (JobSpec, error) {
	if header != "" {
		spec.TraceContext = header
	}
	spec = spec.withDefaults()
	return spec, spec.Validate(s.cfg.MaxJobSize)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(w, r, maxBodyBytes, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	spec, err := s.prepareSpec(spec, traceHeader(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, shed := s.Submit(spec)
	if shed != nil {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.retryAfter)))
		writeError(w, shed.status, shed.reason)
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

// batchItemView is one per-item result of POST /v1/jobs/batch, index-aligned
// with the request's jobs array.
type batchItemView struct {
	Status     int      `json:"status"`
	Job        *JobView `json:"job,omitempty"`
	Error      string   `json:"error,omitempty"`
	RetryAfter int      `json:"retry_after_s,omitempty"`
}

// handleSubmitBatch serves POST /v1/jobs/batch: decode {"jobs":[spec,...]},
// admit the batch through one SubmitBatch call, and render per-item results.
// A spec that fails validation gets a per-item 400 without failing the rest
// of the batch. The overall status is 202 when at least one item was
// admitted; otherwise the first shed's status with its Retry-After relayed,
// so a batch-oblivious client's backoff logic still works.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []JobSpec `json:"jobs"`
	}
	if err := decodeBody(w, r, maxBatchBodyBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad batch: %v", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch (want {\"jobs\":[spec,...]})")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds max_batch_jobs %d", len(req.Jobs), s.cfg.MaxBatchJobs))
		return
	}

	header := traceHeader(r)
	items := make([]batchItemView, len(req.Jobs))
	valid := make([]int, 0, len(req.Jobs))
	specs := make([]JobSpec, 0, len(req.Jobs))
	for i := range req.Jobs {
		spec, err := s.prepareSpec(req.Jobs[i], header)
		if err != nil {
			items[i] = batchItemView{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		valid = append(valid, i)
		specs = append(specs, spec)
	}

	admitted, shedCount := 0, 0
	if len(specs) > 0 {
		for k, res := range s.SubmitBatch(specs) {
			i := valid[k]
			switch {
			case res.job != nil:
				view := res.job.View()
				items[i] = batchItemView{Status: http.StatusAccepted, Job: &view}
				admitted++
			default:
				items[i] = batchItemView{
					Status:     res.shed.status,
					Error:      res.shed.reason,
					RetryAfter: retryAfterSeconds(res.shed.retryAfter),
				}
				shedCount++
			}
		}
	}

	status := http.StatusAccepted
	if admitted == 0 {
		status = http.StatusBadRequest
		for _, it := range items {
			if it.Status == http.StatusTooManyRequests || it.Status == http.StatusServiceUnavailable {
				status = it.Status
				w.Header().Set("Retry-After", strconv.Itoa(it.RetryAfter))
				break
			}
		}
	}
	writeJSON(w, status, map[string]any{
		"admitted": admitted,
		"shed":     shedCount,
		"results":  items,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	if wantWait(r) {
		timeout, err := waitTimeout(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
			// Not an error: return the current (non-terminal) view so the
			// client can re-poll.
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// wantWait reports whether ?wait=true (or =1) was requested.
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "true", "1":
		return true
	}
	return false
}

// waitTimeout parses ?timeout= (Go duration syntax), applying the default
// and ceiling.
func waitTimeout(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("timeout")
	if v == "" {
		return waitTimeoutDefault, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, errors.New("bad timeout " + strconv.Quote(v) + " (want a Go duration, e.g. 30s)")
	}
	if d <= 0 || d > waitTimeoutMax {
		return 0, fmt.Errorf("timeout %v out of (0,%v]", d, waitTimeoutMax)
	}
	return d, nil
}

// retryAfterSeconds renders a duration as the integral seconds Retry-After
// requires, rounding sub-second hints up so clients actually back off.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // network write errors are the client's problem
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

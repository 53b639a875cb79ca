package mesh

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"taskgrain/internal/introspect"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

const (
	maxSubmitBody = 1 << 16
	// maxBatchBody bounds a batch submission: max_batch_jobs specs of a few
	// hundred bytes each fit comfortably in 1 MiB.
	maxBatchBody       = 1 << 20
	waitTimeoutDefault = 30 * time.Second
	waitTimeoutMax     = 5 * time.Minute
)

// Handler returns the gateway's HTTP surface: the same /v1/jobs API the
// nodes serve (so clients are oblivious to the mesh), plus the mesh-only
// node and stats views, the telemetry exports (/metrics for the gateway's
// own counters, /mesh/metrics for the cluster rollup plus every member
// node's last heartbeat snapshot, /telemetry/alerts for the per-node idle
// watchdogs, /mesh/trace for the cross-hop Chrome trace), the control-plane
// decision log (/control/decisions: grain-consensus hints pushed, held
// advisory, or vetoed), and the introspect /debug namespace.
func (m *Mesh) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/jobs", m.handleJobs)
	// The exact pattern outranks the /v1/jobs/ subtree, so batch submissions
	// never read as a job ID named "batch".
	mux.HandleFunc("/v1/jobs/batch", m.handleBatch)
	mux.HandleFunc("/v1/jobs/", m.handleJob)
	mux.HandleFunc("/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"nodes": m.nodes.Statuses()})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, m.StatsSnapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		telemetry.ServeOpenMetrics(w, telemetry.PointsFromRegistry(m.reg, map[string]string{"node": m.cfg.Addr}))
	})
	mux.HandleFunc("/mesh/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		telemetry.ServeOpenMetrics(w, m.clusterPoints())
	})
	mux.HandleFunc("/control/decisions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"mode":      string(m.mode),
			"decisions": m.rec.Log(),
		})
	})
	mux.HandleFunc("/telemetry/alerts", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"alerts": m.Alerts()})
	})
	mux.HandleFunc("/mesh/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		var buf bytes.Buffer
		if err := m.tracer.WriteChromeJSON(&buf); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	})
	mux.Handle("/debug/", http.StripPrefix("/debug", introspect.NewHandler(m.reg)))
	return mux
}

// clusterPoints assembles the /mesh/metrics exposition: the gateway's own
// registry (routing counters, cluster rollup deriveds) plus every member
// node's last heartbeat counter snapshot relabelled with node="<name>".
// Snapshot-derived points are all gauges — the heartbeat carries values,
// not counter kinds — so a cluster scrape never misclassifies a remote
// reading as monotonic.
func (m *Mesh) clusterPoints() []telemetry.MetricPoint {
	points := telemetry.PointsFromRegistry(m.reg, map[string]string{"node": m.cfg.Addr})
	for _, n := range m.nodes.Nodes() {
		snap, _ := n.Snapshot()
		if len(snap) == 0 {
			continue
		}
		points = append(points, telemetry.PointsFromSnapshot(snap, map[string]string{"node": n.Name()})...)
	}
	return points
}

// handleJobs serves POST /v1/jobs (submit through the mesh) and GET /v1/jobs
// (list mesh jobs).
func (m *Mesh) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "unreadable body")
			return
		}
		// A valid incoming trace header makes the mesh job a child of the
		// client's span; a malformed one is ignored (the job is traced under
		// a fresh root), mirroring the node-side leniency.
		parent, _ := trace.ParseSpanContext(r.Header.Get(trace.Header))
		status, body, retryAfter := m.submit(r.Context(), raw, parent)
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retryAfter)))
		}
		writeJSON(w, status, body)
	case http.MethodGet:
		jobs := m.jobs.list()
		out := make([]map[string]any, 0, len(jobs))
		for _, j := range jobs {
			node, retries, spills, _, state, _ := j.snapshot()
			out = append(out, map[string]any{
				"id":      j.id,
				"kind":    j.kind,
				"state":   state,
				"node":    node,
				"retries": retries,
				"spills":  spills,
			})
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use POST or GET")
	}
}

// handleBatch serves POST /v1/jobs/batch: split the batch by the routing
// policy into per-node sub-batches, forward each as one upstream batch call,
// and stitch the per-item results back in request order.
func (m *Mesh) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "unreadable body")
		return
	}
	parent, _ := trace.ParseSpanContext(r.Header.Get(trace.Header))
	status, body, retryAfter := m.submitBatch(r.Context(), raw, parent)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retryAfter)))
	}
	writeJSON(w, status, body)
}

// handleJob serves GET /v1/jobs/{id} (status relay, with ?wait=true&timeout=
// long-poll passthrough) and DELETE /v1/jobs/{id} (cancel relay).
func (m *Mesh) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	job, ok := m.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch r.Method {
	case http.MethodGet:
		waitTimeout, err := parseWait(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		status, body := m.relayStatus(job, r.URL.RawQuery, waitTimeout)
		writeJSON(w, status, body)
	case http.MethodDelete:
		status, body := m.relayCancel(job)
		writeJSON(w, status, body)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// parseWait parses the ?wait=true&timeout= long-poll parameters, mirroring
// the node-side semantics so the raw query can be relayed verbatim. Returns
// 0 when the request is a plain poll.
func parseWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query()
	wait, _ := strconv.ParseBool(q.Get("wait"))
	if !wait {
		return 0, nil
	}
	timeout := waitTimeoutDefault
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			return 0, errBadTimeout(ts)
		}
		timeout = d
	}
	if timeout > waitTimeoutMax {
		timeout = waitTimeoutMax
	}
	return timeout, nil
}

type badTimeout string

func errBadTimeout(s string) error { return badTimeout(s) }

func (b badTimeout) Error() string { return "bad timeout " + strconv.Quote(string(b)) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

package mesh

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
)

// postJob submits a spec through the gateway and decodes the reply.
func postJob(t *testing.T, gw string, spec string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(gw+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMeshSpilloverOn429: the least-loaded (first-ranked) node sheds with
// 429 + Retry-After; the gateway must reroute to the second choice within
// the same pass — no client-visible failure, one spill recorded against the
// shedding node, the admit recorded against the taker.
func TestMeshSpilloverOn429(t *testing.T) {
	shedder := newFakeNode(t)
	taker := newFakeNode(t)
	// least-inflight: shedder reports an empty queue so it ranks first;
	// taker reports backlog so it is strictly second choice.
	shedder.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0, "/server/jobs/running": 0}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "shed"})
		}
	})
	taker.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 3, "/server/jobs/running": 1}
	})

	cfg := testMeshConfig(shedder.ts.URL, taker.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	m, gw := startMesh(t, cfg)

	start := time.Now()
	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit through spillover: %d %v", resp.StatusCode, body)
	}
	mesh, _ := body["mesh"].(map[string]any)
	if mesh == nil || mesh["node"] != taker.name() || mesh["spills"] != float64(1) {
		t.Fatalf("spillover not surfaced in view: %v", body)
	}
	// Same-pass spillover must not sleep out the Retry-After hint: the next
	// node is tried immediately.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("same-pass spillover slept %v", elapsed)
	}
	if shedder.submits.Load() != 1 || taker.submits.Load() != 1 {
		t.Fatalf("submits: shedder %d taker %d, want 1 and 1",
			shedder.submits.Load(), taker.submits.Load())
	}

	snap := m.Counters().Snapshot()
	if snap[nodeCounter(shedder.name(), "spills")] != 1 {
		t.Fatalf("shedder spill not counted: %v", snap)
	}
	if snap[nodeCounter(taker.name(), "routed-jobs")] != 1 {
		t.Fatalf("taker admit not counted: %v", snap)
	}
	if snap["/mesh/jobs/submitted"] != 1 || snap["/mesh/jobs/rejected"] != 0 {
		t.Fatalf("mesh totals wrong: %v", snap)
	}
}

// TestMeshSubmitExhaustionHonoursRetryAfter: when every node sheds, the
// gateway retries across passes — sleeping out the nodes' Retry-After hint
// (capped by MaxBackoff) between passes — and finally sheds itself with 503
// + Retry-After after MaxSubmitAttempts node tries.
func TestMeshSubmitExhaustionHonoursRetryAfter(t *testing.T) {
	shed := func(f *fakeNode) {
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "shed"})
		}
	}
	a := newFakeNode(t)
	b := newFakeNode(t)
	a.set(shed)
	b.set(shed)

	cfg := testMeshConfig(a.ts.URL, b.ts.URL)
	cfg.MaxSubmitAttempts = 4
	cfg.MaxBackoff = 30 * time.Millisecond
	m, gw := startMesh(t, cfg)

	start := time.Now()
	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exhausted submit: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mesh shed without a Retry-After hint")
	}
	// 4 attempts over 2 nodes = 2 passes = 1 inter-pass backoff, jittered
	// into [MaxBackoff/2, MaxBackoff).
	if got := a.submits.Load() + b.submits.Load(); got != 4 {
		t.Fatalf("node tries = %d, want MaxSubmitAttempts = 4", got)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("inter-pass backoff skipped: submit returned in %v", elapsed)
	}

	snap := m.Counters().Snapshot()
	if snap["/mesh/jobs/rejected"] != 1 || snap["/mesh/jobs/submitted"] != 0 {
		t.Fatalf("mesh totals wrong after exhaustion: %v", snap)
	}
	// The job must not linger in the gateway store.
	if jobs := m.jobs.list(); len(jobs) != 0 {
		t.Fatalf("rejected job retained: %v", jobs)
	}
}

// TestMeshSubmitRelaysSpecRejection: a 4xx that is not a shed is a verdict on
// the spec itself — the gateway must relay it without burning attempts on
// other nodes.
func TestMeshSubmitRelaysSpecRejection(t *testing.T) {
	bad := newFakeNode(t)
	other := newFakeNode(t)
	bad.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown kind"})
		}
	})
	other.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 5}
	})

	cfg := testMeshConfig(bad.ts.URL, other.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	_, gw := startMesh(t, cfg)

	resp, body := postJob(t, gw.URL, `{"kind":"nonsense","size":10}`)
	if resp.StatusCode != http.StatusBadRequest || body["error"] != "unknown kind" {
		t.Fatalf("spec rejection not relayed: %d %v", resp.StatusCode, body)
	}
	if other.submits.Load() != 0 {
		t.Fatal("spec rejection was retried on another node")
	}
}

// TestMeshSubmitNoRoutableNodes: with every node down or draining the
// placement loop must consume its attempt budget and shed with 503 — not
// spin in backoff forever, which would wedge the client's POST (and, via
// failover, the job's failoverMu).
func TestMeshSubmitNoRoutableNodes(t *testing.T) {
	// The dead node's network face is killed by the chaos proxy switch —
	// every heartbeat aborts, so the registry never routes to it.
	dead, deadProxy := newProxiedNode(t, chaos.ProxyConfig{})
	deadProxy.SetDown(true)
	draining := newFakeNode(t)
	draining.set(func(f *fakeNode) { f.draining = true })

	m, gw := startMesh(t, testMeshConfig(dead.ts.URL, draining.ts.URL))
	waitFor(t, 2*time.Second, "no routable nodes", func() bool {
		return len(m.NodeRegistry().Routable()) == 0
	})

	start := time.Now()
	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable || body["error"] != "no routable mesh nodes" {
		t.Fatalf("submit with no routable nodes: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mesh shed without a Retry-After hint")
	}
	// MaxSubmitAttempts empty passes with MaxBackoff-capped sleeps between
	// them — anything beyond a couple of seconds means the loop spun.
	if elapsed > 2*time.Second {
		t.Fatalf("empty-mesh submit took %v", elapsed)
	}
	if got := dead.submits.Load() + draining.submits.Load(); got != 0 {
		t.Fatalf("unroutable nodes received %d submits", got)
	}
	snap := m.Counters().Snapshot()
	if snap["/mesh/jobs/rejected"] != 1 || snap["/mesh/jobs/submitted"] != 0 {
		t.Fatalf("mesh totals wrong: %v", snap)
	}
	if jobs := m.jobs.list(); len(jobs) != 0 {
		t.Fatalf("rejected job retained: %v", jobs)
	}
}

// TestMeshSubmitReplaysUndecodableAccept: a 202 whose body lacks a decodable
// id means the node *did* admit a job — the gateway must replay the same
// node (the idempotency key turns the retry into a lookup of the job the
// node already holds) instead of re-placing elsewhere and orphaning the
// admitted run.
func TestMeshSubmitReplaysUndecodableAccept(t *testing.T) {
	flaky := newFakeNode(t)
	other := newFakeNode(t)
	flaky.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			if f.submits.Load() == 1 {
				writeJSON(w, http.StatusAccepted, map[string]any{"state": "queued"}) // no id
				return
			}
			writeJSON(w, http.StatusAccepted, map[string]any{"id": "n-1", "state": "queued"})
		}
	})
	other.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 5}
	})

	cfg := testMeshConfig(flaky.ts.URL, other.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	m, gw := startMesh(t, cfg)

	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit through replay: %d %v", resp.StatusCode, body)
	}
	mesh, _ := body["mesh"].(map[string]any)
	if mesh == nil || mesh["node"] != flaky.name() {
		t.Fatalf("job not placed on the admitting node: %v", body)
	}
	if flaky.submits.Load() != 2 || other.submits.Load() != 0 {
		t.Fatalf("submits: flaky %d other %d, want a same-node replay (2 and 0)",
			flaky.submits.Load(), other.submits.Load())
	}
	snap := m.Counters().Snapshot()
	if snap[nodeCounter(flaky.name(), "spills")] != 0 {
		t.Fatalf("same-node replay counted as a spill: %v", snap)
	}
}

// TestMeshSubmitUndecodableAcceptExhausts: if the node never returns a
// decodable id, the replay loop stays attempt-bounded and surfaces the
// anomaly as 502 instead of silently shedding or spinning.
func TestMeshSubmitUndecodableAcceptExhausts(t *testing.T) {
	n := newFakeNode(t)
	n.set(func(f *fakeNode) {
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusAccepted, map[string]any{"state": "queued"})
		}
	})
	cfg := testMeshConfig(n.ts.URL)
	cfg.MaxSubmitAttempts = 3
	_, gw := startMesh(t, cfg)

	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("undecodable accepts: %d %v, want 502", resp.StatusCode, body)
	}
	if got := n.submits.Load(); got != 3 {
		t.Fatalf("node tries = %d, want MaxSubmitAttempts = 3", got)
	}
}

// TestParseRetryAfter: both RFC 9110 forms must be honoured — delta-seconds
// and HTTP-date — with junk and stale values reading as "no hint".
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 5*time.Second {
		t.Fatalf("http-date: %v", d)
	}
	past := time.Now().Add(-5 * time.Second).UTC().Format(http.TimeFormat)
	for _, v := range []string{"", "-2", "0", "garbage", past} {
		if d := parseRetryAfter(v); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", v, d)
		}
	}
}

// TestMeshSubmitStampsIdempotencyKey: every forwarded spec must carry an
// idempotency key so a failover resubmission replays instead of re-running;
// a client-provided key is preserved.
func TestMeshSubmitStampsIdempotencyKey(t *testing.T) {
	var keys []string
	n := newFakeNode(t)
	n.set(func(f *fakeNode) {
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			var spec map[string]any
			json.NewDecoder(r.Body).Decode(&spec)
			k, _ := spec["idempotency_key"].(string)
			keys = append(keys, k)
			writeJSON(w, http.StatusAccepted, map[string]any{"id": "n-1", "state": "queued"})
		}
	})
	_, gw := startMesh(t, testMeshConfig(n.ts.URL))

	if resp, _ := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	if resp, _ := postJob(t, gw.URL, `{"kind":"fibonacci","size":10,"idempotency_key":"client-key-7"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	if len(keys) != 2 || keys[0] == "" || keys[1] != "client-key-7" {
		t.Fatalf("idempotency keys = %v", keys)
	}
}

// TestMeshSubmitRejectsNullSpec: a JSON null body decodes without error into
// a nil spec; it must be refused with 400, not reach a node or the store.
func TestMeshSubmitRejectsNullSpec(t *testing.T) {
	n := newFakeNode(t)
	m, gw := startMesh(t, testMeshConfig(n.ts.URL))

	resp, body := postJob(t, gw.URL, `null`)
	if resp.StatusCode != http.StatusBadRequest || body["error"] != "null job spec" {
		t.Fatalf("null spec: %d %v, want 400 null job spec", resp.StatusCode, body)
	}
	if n.submits.Load() != 0 || len(m.jobs.list()) != 0 {
		t.Fatalf("null spec reached the node (%d submits) or the store (%d jobs)", n.submits.Load(), len(m.jobs.list()))
	}
}

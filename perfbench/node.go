package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/taskserve"
)

// node is one in-process taskserve server behind a loopback listener.
type node struct {
	srv  *taskserve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startNode listens on a loopback port, builds the server from cfg (Addr is
// set to the listener's address) and serves its HTTP handler.
func startNode(cfg config.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Addr = ln.Addr().String()
	srv, err := taskserve.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv.Start()
	n := &node{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + cfg.Addr,
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

// close stops the listener, waits for the serve loop, and drains the server.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns an HTTP client limited to conns connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// doJSON sends one request and decodes a JSON response body into out (when
// non-nil). It returns the HTTP status.
func doJSON(c *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// fibClosedForm is fib(n) from Binet's formula, exact for n ≤ 70.
func fibClosedForm(n int) float64 {
	phi := (1 + math.Sqrt(5)) / 2
	return math.Round(math.Pow(phi, float64(n)) / math.Sqrt(5))
}

// checksumOK compares a job's checksum with the expected value within a
// relative tolerance (float sums differ in their last bits when the grain,
// and so the summation order, changes).
func checksumOK(got, want float64) bool {
	const relTol = 1e-9
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1)
}

// readCounters reads named counters of a server's registry.
func readCounters(srv *taskserve.Server, names ...string) map[string]float64 {
	snap := srv.Runtime().Counters().Snapshot()
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = snap.Get(n)
	}
	return out
}

// grainDecisions sums the grow+shrink decisions of every adaptive grain
// controller on srv.
func grainDecisions(srv *taskserve.Server) float64 {
	snap := srv.Runtime().Counters().Snapshot()
	total := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, "/server/grain{") &&
			(strings.HasSuffix(name, "/decisions{grow}") || strings.HasSuffix(name, "/decisions{shrink}")) {
			total += v
		}
	}
	return total
}

// probeRef is the reference ring of the stencil pair the serving workloads
// run on a node's runtime after their timed window.
func probeRef() ([]float64, error) { return stencil.Reference(gridConfig(midGrain, probeSteps)) }

// stencilOnNode runs probeReps stencil.Run calls per grain on rt — the
// serving node's own runtime, idle after the timed window — and reports
// their medians as stencil_fine_s/stencil_mid_s, with the Eq. 1–3 layer
// metrics when traced. It runs with nproc Go processors, as stencil-ucurve
// does: the runtime is then the only busy process.
func stencilOnNode(rt *taskrt.Runtime, ref []float64, tr *tracer, e map[string]value, rep *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc()))
	var fine, mid gridStats
	for i := 0; i < probeReps; i++ {
		if err := runGrid(rt, gridConfig(fineGrain, probeSteps), ref, &fine, tr, tr != nil); err != nil {
			return err
		}
		if err := runGrid(rt, gridConfig(midGrain, probeSteps), ref, &mid, tr, false); err != nil {
			return err
		}
	}
	wrong := fine.wrong + mid.wrong
	rep.Attempted += int64(2 * probeReps)
	rep.Failed += int64(wrong)
	rep.Wrong += int64(wrong)
	note := fmt.Sprintf("median of %d runs on the node runtime, %d steps", probeReps, probeSteps)
	e["stencil_fine_s"] = value{V: median(fine.secs), N: len(fine.secs), Note: note}
	e["stencil_mid_s"] = value{V: median(mid.secs), N: len(mid.secs), Note: note}
	if tr != nil {
		layerGrid(rep.Layer, "fine", &fine, 0)
		layerGrid(rep.Layer, "mid", &mid, 0)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// nproc is the host's CPU count: the worker count, the sender-goroutine
// bound, and the client-connection bound of every workload.
func nproc() int { return runtime.NumCPU() }

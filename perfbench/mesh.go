package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/journal"
	"taskgrain/internal/mesh"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskserve"
)

// mesh-batch: a mesh gateway in front of two one-worker taskserve nodes,
// all in-process on loopback. The nodes keep the daemon's default admission
// (so the idle-rate shedder stays live) with an fsync=always journal; the
// gateway keeps its default journal settings. nproc clients each send a
// seeded 32-job batch, long-poll every job to terminal through the gateway,
// then send the next batch.
const (
	meshNodes        = 2
	directBatches    = 10 // traced: batches POSTed straight to a node
	directRetries    = 5
	meshPollTimeout  = "30s"
	meshReadyTimeout = 10 * time.Second
	// meshWarmupBatches are sent before timing starts.
	meshWarmupBatches = 8
)

// The mix's parameter sets. Only stencil1d runs on the adaptive grain; the
// other kinds carry explicit grains so set-up can compute their reference
// checksums.
var (
	mixStencilSizes = []int{200_000, 400_000}
	mixFibSizes     = []int{22, 23, 24}
	mixSeeds        = []int64{1, 2, 3, 4}
)

const (
	mixSteps          = 4
	mixFibGrain       = 12
	mixIrregularSize  = 400_000
	mixIrregularGrain = 2_000
	mixTaskbenchWidth = 8
	mixTaskbenchGrain = 100_000
)

// mixBatch returns one seeded batch of the mix. Every batch holds the same
// multiset of kinds and sizes — a quarter of each kind, each kind's sizes
// taken in turn from a seeded offset — in seeded order, with seeded
// irregular/taskbench seeds, so runs differ in order and seeds but not in
// the amount of work per batch.
func mixBatch(rng *rand.Rand) []taskserve.JobSpec {
	const perKind = batchJobs / 4
	specs := make([]taskserve.JobSpec, 0, batchJobs)
	off := rng.Intn(len(mixStencilSizes) * len(mixFibSizes))
	for i := 0; i < perKind; i++ {
		specs = append(specs,
			taskserve.JobSpec{Kind: taskserve.KindStencil, Size: mixStencilSizes[(off+i)%len(mixStencilSizes)], Steps: mixSteps},
			taskserve.JobSpec{Kind: taskserve.KindFibonacci, Size: mixFibSizes[(off+i)%len(mixFibSizes)], Grain: mixFibGrain},
			taskserve.JobSpec{Kind: taskserve.KindIrregular, Size: mixIrregularSize, Grain: mixIrregularGrain,
				Seed: mixSeeds[rng.Intn(len(mixSeeds))]},
			taskserve.JobSpec{Kind: taskserve.KindTaskbench, Size: mixTaskbenchWidth, Steps: mixSteps,
				Grain: mixTaskbenchGrain, Pattern: "stencil1d", Seed: mixSeeds[rng.Intn(len(mixSeeds))]})
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// specKey identifies a spec's expected checksum. The grain is left out for
// stencil1d (adaptive; the sum does not depend on it beyond rounding).
func specKey(s taskserve.JobSpec) string {
	g := s.Grain
	if s.Kind == taskserve.KindStencil {
		g = 0
	}
	return fmt.Sprintf("%s/%d/%d/%d/%d", s.Kind, s.Size, s.Steps, g, s.Seed)
}

// mixReferences computes the expected checksum of every spec the mix can
// draw: fibonacci from the closed form, stencil1d from stencil.Reference,
// irregular and taskbench from a reference run of the same seeded spec on a
// journal-less server.
func mixReferences() (map[string]float64, error) {
	want := map[string]float64{}
	for _, n := range mixFibSizes {
		want[specKey(taskserve.JobSpec{Kind: taskserve.KindFibonacci, Size: n, Grain: mixFibGrain})] = fibClosedForm(n)
	}
	for _, n := range mixStencilSizes {
		ref, err := stencil.Reference(stencil.Config{TotalPoints: n, PointsPerPartition: n, TimeSteps: mixSteps})
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, v := range ref {
			sum += v
		}
		want[specKey(taskserve.JobSpec{Kind: taskserve.KindStencil, Size: n, Steps: mixSteps})] = sum
	}
	cfg := config.DefaultServer()
	cfg.Addr = "reference"
	cfg.Workers = nproc()
	cfg.ShedMinTasks = 1e12
	srv, err := taskserve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Close()
	for _, seed := range mixSeeds {
		for _, spec := range []taskserve.JobSpec{
			{Kind: taskserve.KindIrregular, Size: mixIrregularSize, Grain: mixIrregularGrain, Seed: seed},
			{Kind: taskserve.KindTaskbench, Size: mixTaskbenchWidth, Steps: mixSteps, Grain: mixTaskbenchGrain, Pattern: "stencil1d", Seed: seed},
		} {
			j, se := srv.Submit(spec)
			if se != nil {
				return nil, fmt.Errorf("reference run refused: %v", se)
			}
			select {
			case <-j.Done():
			case <-time.After(drainWait):
				return nil, fmt.Errorf("reference run of %s never finished", specKey(spec))
			}
			v := j.View()
			if v.State != taskserve.JobDone || v.Result == nil {
				return nil, fmt.Errorf("reference run of %s ended %s: %s", specKey(spec), v.State, v.Error)
			}
			want[specKey(spec)] = v.Result.Checksum
		}
	}
	return want, nil
}

// meshView is the part of a gateway job view the benchmark reads.
type meshView struct {
	ID          string               `json:"id"`
	State       string               `json:"state"`
	SubmittedAt time.Time            `json:"submitted_at"`
	StartedAt   *time.Time           `json:"started_at"`
	FinishedAt  *time.Time           `json:"finished_at"`
	Result      *taskserve.JobResult `json:"result"`
}

// batchReply is a batch submission's reply, the same shape from a node and
// from the gateway.
type batchReply struct {
	Results []struct {
		Status     int      `json:"status"`
		Job        meshView `json:"job"`
		RetryAfter int      `json:"retry_after_s"`
	} `json:"results"`
}

type meshBench struct {
	nodes  []*node
	gw     *mesh.Mesh
	hs     *http.Server
	gwURL  string
	done   chan struct{}
	client *http.Client
	want   map[string]float64
	ref    []float64
}

func (b *meshBench) setup(dir string) error {
	want, err := mixReferences()
	if err != nil {
		return err
	}
	b.want = want
	if b.ref, err = probeRef(); err != nil {
		return err
	}
	var urls []string
	for i := 0; i < meshNodes; i++ {
		cfg := config.DefaultServer()
		cfg.Workers = 1
		cfg.JournalDir = filepath.Join(dir, fmt.Sprintf("node%d", i))
		cfg.JournalFsync = string(journal.FsyncAlways)
		n, err := startNode(cfg)
		if err != nil {
			return err
		}
		b.nodes = append(b.nodes, n)
		urls = append(urls, n.url)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mcfg := config.DefaultMesh()
	mcfg.Addr = ln.Addr().String()
	mcfg.Nodes = urls
	mcfg.JournalDir = filepath.Join(dir, "gateway")
	gw, err := mesh.New(mcfg)
	if err != nil {
		ln.Close()
		return err
	}
	gw.Start()
	b.gw = gw
	b.hs = &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.gwURL = "http://" + mcfg.Addr
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	b.client = newClient(nproc())
	deadline := time.Now().Add(meshReadyTimeout)
	for len(gw.NodeRegistry().Routable()) < meshNodes {
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway sees %d of %d nodes healthy after %v", len(gw.NodeRegistry().Routable()), meshNodes, meshReadyTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (b *meshBench) close() {
	if b.hs != nil {
		_ = b.hs.Close()
		<-b.done
		b.hs = nil
	}
	if b.gw != nil {
		b.gw.Stop()
		b.gw = nil
	}
	for _, n := range b.nodes {
		_ = n.close()
	}
	b.nodes = nil
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// interval is one timed call.
type interval struct{ start, end time.Time }

// meshJobRec is one job of one batch and what became of it.
type meshJobRec struct {
	spec       taskserve.JobSpec
	status     int
	retryAfter int // seconds, on a shed item
	view       meshView
	terminal   bool
	polls      []interval // status long-polls
}

// meshBatchRec is one batch round trip of one client.
type meshBatchRec struct {
	sent, acked time.Time
	status      int
	err         error
	jobs        []meshJobRec
}

// sendBatch POSTs specs to base (the gateway, or a node directly) and
// long-polls every admitted job to terminal at the same base.
func (b *meshBench) sendBatch(base string, specs []taskserve.JobSpec) meshBatchRec {
	rec := meshBatchRec{jobs: make([]meshJobRec, len(specs))}
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		rec.err = err
		return rec
	}
	var reply batchReply
	rec.sent = time.Now()
	rec.status, rec.err = doJSON(b.client, http.MethodPost, base+"/v1/jobs/batch", body, &reply)
	rec.acked = time.Now()
	items := reply.Results
	for i := range rec.jobs {
		rec.jobs[i].spec = specs[i]
		if i < len(items) {
			rec.jobs[i].status = items[i].Status
			rec.jobs[i].retryAfter = items[i].RetryAfter
			rec.jobs[i].view = items[i].Job
		}
	}
	if rec.err != nil || rec.status != http.StatusAccepted || len(items) != len(specs) {
		return rec
	}
	deadline := time.Now().Add(drainWait)
	for i := range rec.jobs {
		j := &rec.jobs[i]
		if j.status != http.StatusAccepted {
			continue
		}
		id := j.view.ID
		for !j.terminal && time.Now().Before(deadline) {
			t0 := time.Now()
			var v meshView
			code, err := doJSON(b.client, http.MethodGet, base+"/v1/jobs/"+id+"?wait=true&timeout="+meshPollTimeout, nil, &v)
			j.polls = append(j.polls, interval{t0, time.Now()})
			if err != nil || code != http.StatusOK {
				break
			}
			j.view = v
			j.terminal = v.State == string(taskserve.JobDone) || v.State == string(taskserve.JobFailed) ||
				v.State == string(taskserve.JobCancelled)
		}
	}
	return rec
}

// nodeCounterSum sums named counters over every node.
func (b *meshBench) nodeCounterSum(names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range b.nodes {
		for k, v := range readCounters(n.srv, names...) {
			out[k] += v
		}
	}
	return out
}

// routedPerNode reads the gateway's per-node routed-jobs counters.
func (b *meshBench) routedPerNode() map[string]float64 {
	out := map[string]float64{}
	for name, v := range b.gw.Counters().Snapshot() {
		if strings.HasPrefix(name, "/mesh/node{") && strings.HasSuffix(name, "/routed-jobs") {
			out[name] = v
		}
	}
	return out
}

// window runs nproc closed-loop clients for seconds; tr != nil makes it the
// traced window, which also sends directBatches batches straight to a node.
func (b *meshBench) window(seed int64, seconds float64, tr *tracer, rep *report) (map[string]value, error) {
	var skew *skewSampler
	if tr != nil {
		skew = startSkewSampler(b.nodes[0].srv.Runtime().Counters(), 2*time.Millisecond)
	}
	nodeNames := []string{"/journal/appends", "/journal/fsyncs", "/threads/count/wakeups",
		"/threads/count/park-timeouts", "/control/actuations", "/control/vetoes"}
	n0, g0, r0 := b.nodeCounterSum(nodeNames...), b.gw.Counters().Snapshot(), b.routedPerNode()
	dec0 := 0.0
	for _, n := range b.nodes {
		dec0 += grainDecisions(n.srv)
	}
	rss := startRSSSampler()
	p0 := readProc()
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]meshBatchRec, nproc())
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(c)))
			for time.Now().Before(deadline) {
				perClient[c] = append(perClient[c], b.sendBatch(b.gwURL, mixBatch(rng)))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu := cpuTime() - c0
	p1 := readProc()
	rssPeak, slices := rss.finish()
	n1, g1, r1 := b.nodeCounterSum(nodeNames...), b.gw.Counters().Snapshot(), b.routedPerNode()
	dec1 := 0.0
	for _, n := range b.nodes {
		dec1 += grainDecisions(n.srv)
	}

	// Latencies in batch send order, so chunkedTail sees a time series.
	var all []meshBatchRec
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sent.Before(all[j].sent) })
	var tl tally
	var acks, dones, queues, execs, polls []float64
	var execSum, e2eSum float64
	batches := len(all)
	for _, br := range all {
		if br.err == nil && br.status == http.StatusAccepted {
			acks = append(acks, ms(br.acked.Sub(br.sent)))
		} else {
			acks = append(acks, ms(failedLatency))
		}
		var batchID uint64
		if tr != nil {
			batchID = tr.newID()
			tr.record(batchID, batchID, "http.POST gateway /v1/jobs/batch", br.sent, br.acked)
		}
		last := br.acked
		for _, j := range br.jobs {
			ok, wrong := b.judge(j)
			tl.add(ok, wrong)
			for _, p := range j.polls {
				polls = append(polls, ms(p.end.Sub(p.start)))
				if tr != nil {
					tr.record(batchID, batchID, "http.GET gateway /v1/jobs/{id}", p.start, p.end)
				}
			}
			if !ok {
				dones = append(dones, ms(failedLatency))
				continue
			}
			fin, started := *j.view.FinishedAt, *j.view.StartedAt
			dones = append(dones, ms(fin.Sub(br.sent)))
			queues = append(queues, ms(started.Sub(j.view.SubmittedAt)))
			execs = append(execs, ms(fin.Sub(started)))
			execSum += fin.Sub(started).Seconds()
			e2eSum += fin.Sub(br.sent).Seconds()
			if fin.After(last) {
				last = fin
			}
			if tr != nil {
				tr.record(batchID, batchID, "taskserve.queue", j.view.SubmittedAt, started)
				tr.record(batchID, batchID, "taskserve.exec", started, fin)
			}
		}
		if tr != nil {
			tr.recordWithID(batchID, batchID, 0, "batch", br.sent, last)
		}
	}
	tl.into(rep)
	okJobs := float64(tl.attempted - tl.failed)

	e := map[string]value{}
	setTiming(e, "ack_p50_ms", "ack_p99_ms", chunkedTail(acks))
	setTiming(e, "done_p50_ms", "done_p99_ms", chunkedTail(dones))
	e["jobs_per_s"] = value{V: okJobs / elapsed, N: int(okJobs), Note: "correct terminal jobs / window"}
	e["cpu_ms_per_job"] = value{V: ratio(ms(cpu), okJobs), N: int(okJobs), Note: "process CPU, clients and gateway included"}
	if err := stencilOnNode(b.nodes[0].srv.Runtime(), b.ref, tr, e, rep); err != nil {
		return nil, err
	}
	e["rss_peak_mb"] = value{V: rssPeak, N: slices, Note: "median of per-second peaks"}
	if tr == nil {
		return e, nil
	}

	l := rep.Layer
	skew.finish(l)
	nb := float64(batches)
	dn := func(name string) float64 { return n1[name] - n0[name] }
	dg := func(name string) float64 { return g1.Get(name) - g0.Get(name) }
	l["mesh.split_factor"] = value{V: ratio(dg("/mesh/batch/forwarded"), nb), N: batches, Note: "upstream sub-batches per batch"}
	l["mesh.spills_per_batch"] = value{V: ratio(dg("/mesh/jobs/spills"), nb), N: batches}
	l["mesh.failovers"] = value{V: dg("/mesh/jobs/failovers"), N: 1}
	routed, maxRouted := 0.0, 0.0
	for name, v := range r1 {
		d := v - r0[name]
		routed += d
		maxRouted = max(maxRouted, d)
	}
	l["mesh.node_share_max"] = value{V: ratio(maxRouted, routed), N: int(routed), Note: "busiest node's share of routed jobs"}
	setTiming(l, "mesh.status_ms.p50", "mesh.status_ms.p99", summarize(polls, 0.99))
	setTiming(l, "taskserve.queue_ms.p50", "taskserve.queue_ms.p99", summarize(queues, 0.99))
	setTiming(l, "taskserve.exec_ms.p50", "taskserve.exec_ms.p99", summarize(execs, 0.99))
	l["taskserve.exec_share"] = value{V: ratio(execSum, e2eSum), N: len(execs), Note: "Σexec / Σ(send→finished)"}
	l["taskserve.allocs_per_job"] = value{V: ratio(float64(p1.mallocs-p0.mallocs), okJobs), N: int(okJobs), Note: "process-wide, clients and gateway included"}
	l["taskserve.bytes_per_job"] = value{V: ratio(float64(p1.bytes-p0.bytes), okJobs), N: int(okJobs)}
	retained, grain := 0, 0.0
	for _, n := range b.nodes {
		retained += len(n.srv.Jobs())
		grain += n.srv.Runtime().Counters().Snapshot().Get("/server/grain{stencil1d}/current") / meshNodes
		var st taskserve.Stats
		if code, err := doJSON(b.client, http.MethodGet, n.url+"/v1/stats", nil, &st); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("GET %s/v1/stats: status %d: %v", n.url, code, err)
		}
		addShed(l, st)
	}
	l["taskserve.store_retained"] = value{V: float64(retained), N: meshNodes, Note: "summed over nodes"}
	l["adaptive.final_grain.stencil1d"] = value{V: grain, N: meshNodes, Note: "mean over nodes"}
	l["adaptive.grain_moves"] = value{V: dec1 - dec0, N: meshNodes, Note: "grow+shrink decisions, all nodes"}
	l["policyengine.actuations"] = value{V: dn("/control/actuations"), N: meshNodes}
	l["policyengine.vetoes"] = value{V: dn("/control/vetoes"), N: meshNodes}
	l["journal.appends_per_job"] = value{V: ratio(dn("/journal/appends"), okJobs), N: int(okJobs), Note: "node journals"}
	l["journal.fsyncs_per_job"] = value{V: ratio(dn("/journal/fsyncs"), okJobs), N: int(okJobs)}
	l["journal.group_size"] = value{V: ratio(dn("/journal/appends"), dn("/journal/fsyncs")), N: int(dn("/journal/fsyncs")), Note: "appends / fsyncs"}
	l["taskrt.wakeups_per_job"] = value{V: ratio(dn("/threads/count/wakeups"), okJobs), N: int(okJobs)}
	l["taskrt.park_timeouts_per_s"] = value{V: dn("/threads/count/park-timeouts") / elapsed, N: 1}
	l["loadgen.sent"] = value{V: float64(tl.attempted), N: batches, Note: "jobs"}
	l["loadgen.ok"] = value{V: okJobs, N: 1}
	l["loadgen.failed"] = value{V: float64(tl.failed), N: 1}
	cycles, pause := gcDelta(p0, p1)
	l["proc.gc_cycles"] = value{V: cycles, N: 1}
	l["proc.gc_pause_p99_us"] = value{V: pause, N: int(cycles)}
	return e, b.direct(seed, tr, rep)
}

// judge classifies one job against its expected checksum.
func (b *meshBench) judge(j meshJobRec) (ok, wrong bool) {
	want, known := b.want[specKey(j.spec)]
	got := 0.0
	if j.view.Result != nil {
		got = j.view.Result.Checksum
	}
	if !known {
		return false, false
	}
	return jobOutcome(j.status, nil, j.terminal, j.view.State, got, want)
}

// direct sends directBatches seeded batches straight to the nodes in turn,
// bypassing the gateway: batch_ack against the gateway's ack_* splits the
// gateway's share of a batch submission. Like a well-behaved client it
// resubmits shed items after the node's Retry-After, up to directRetries
// times; only the first POST of a batch is timed.
func (b *meshBench) direct(seed int64, tr *tracer, rep *report) error {
	rng := rand.New(rand.NewSource(seed*100 + 99))
	var acks []float64
	var tl tally
	for k := 0; k < directBatches; k++ {
		pending := mixBatch(rng)
		url := b.nodes[k%meshNodes].url
		for try := 0; len(pending) > 0 && try <= directRetries; try++ {
			br := b.sendBatch(url, pending)
			id := tr.newID()
			tr.record(id, 0, "http.POST node /v1/jobs/batch", br.sent, br.acked)
			for _, j := range br.jobs {
				for _, p := range j.polls {
					tr.record(id, 0, "http.GET node /v1/jobs/{id}", p.start, p.end)
				}
			}
			if try == 0 && br.err == nil && br.status == http.StatusAccepted {
				acks = append(acks, ms(br.acked.Sub(br.sent)))
			}
			var shed []taskserve.JobSpec
			wait := 0
			for _, j := range br.jobs {
				if j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable {
					shed = append(shed, j.spec)
					wait = max(wait, j.retryAfter)
					continue
				}
				tl.add(b.judge(j))
			}
			pending = shed
			if len(shed) > 0 && try < directRetries {
				time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			}
		}
		for range pending {
			tl.add(false, false)
		}
	}
	tl.into(rep)
	setTiming(rep.Layer, "taskserve.batch_ack_ms.p50", "taskserve.batch_ack_ms.p99", summarize(acks, 0.99))
	return nil
}

func runMeshBatch(opt options) (*report, error) {
	rep := newReport("mesh-batch")
	rep.Meta["config"] = map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nodes":      meshNodes, "node_workers": 1, "clients": nproc(), "connections": nproc(), "batch_jobs": batchJobs,
		"node_admission": "daemon defaults", "node_journal_fsync": "always", "gateway": "daemon defaults + journal",
		"mix": "8 each of stencil1d (adaptive grain), fibonacci, irregular, taskbench stencil1d per batch, seeded order",
		"mix_sizes": map[string]any{"stencil1d": mixStencilSizes, "fibonacci": mixFibSizes, "irregular": mixIrregularSize,
			"taskbench_width": mixTaskbenchWidth, "steps": mixSteps},
		"journal_dir": "inside the checkout (.bench_build)",
	}
	b := &meshBench{}
	defer b.close()
	setup := func(i int) error { return b.setup(filepath.Join(opt.workDir, fmt.Sprintf("setup%d", i))) }
	if err := timeSetups(rep, opt.setups, setup, b.close); err != nil {
		return nil, err
	}
	// Warm-up, excluded from set-up: a few batches per client, so the
	// connections and the adaptive stencil1d grain are past their cold start.
	rng := rand.New(rand.NewSource(opt.seed))
	for k := 0; k < meshWarmupBatches; k++ {
		if br := b.sendBatch(b.gwURL, mixBatch(rng)); br.err != nil || br.status != http.StatusAccepted {
			return nil, fmt.Errorf("warm-up batch: status %d: %v", br.status, br.err)
		}
	}
	window := 0
	return finishWindows(rep, opt, func(seconds float64, tr *tracer) (map[string]value, error) {
		window++
		return b.window(opt.seed*1000+int64(window), seconds, tr, rep)
	})
}

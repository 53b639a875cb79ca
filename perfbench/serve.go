package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/journal"
	"taskgrain/internal/taskserve"
	"taskgrain/internal/telemetry"
)

// serve-single: one taskserve node on loopback with the daemon flags the
// batch-admission experiment used (workers = nproc, 20ms sampling, a 16384
// job queue, the idle-rate shed floor pinned out of reach, fsync=always), fed
// single fibonacci(15, grain 10) jobs by a seeded open-loop Poisson
// generator. The jobs are tiny, so the fixed per-request costs dominate.
const (
	// serveRate is the offered load in jobs/s: about a third of the
	// closed-loop capacity of this path measured on the reference host
	// (see README.md; every run also records its own warm-up capacity).
	serveRate = 200.0
	// warmupJobs exceeds the job store's 1024-job terminal retention bound,
	// so the timed window starts with a full store, as on a long-lived daemon.
	warmupJobs = 1100
	// capacityJobs are sent closed-loop after the warm-up to record the
	// full-store capacity of the path.
	capacityJobs = 2000
	// replaySeconds bounds the traced Server.Submit replay to a prefix of
	// the window's schedule.
	replaySeconds = 3.0
	// journalProbeMax caps the records of the direct journal measurement.
	journalProbeMax = 2000
	batchJobs       = 32
	// failedLatency stands in for the latency of a refused or failed
	// request (the client timeout): it misses any latency limit.
	failedLatency = 60 * time.Second
	// drainWait bounds how long a window waits for its admitted jobs.
	drainWait = 60 * time.Second
)

var (
	serveSpec = taskserve.JobSpec{Kind: taskserve.KindFibonacci, Size: 15, Grain: 10}
	serveBody = []byte(`{"kind":"fibonacci","size":15,"grain":10}`)
	serveWant = fibClosedForm(15)
)

// serveConfig returns the node configuration of serve-single.
func serveConfig(journalDir string) config.Server {
	cfg := config.DefaultServer()
	cfg.Workers = nproc()
	cfg.SampleInterval = 20 * time.Millisecond
	cfg.MaxQueuedJobs = 16384
	cfg.ShedMinTasks = 1e12
	cfg.JournalDir = journalDir
	cfg.JournalFsync = string(journal.FsyncAlways)
	return cfg
}

// clock abstracts time for the open-loop generator so its lateness
// accounting can be tested without sleeping.
type clock struct {
	now        func() time.Time
	sleepUntil func(time.Time)
}

var wallClock = clock{
	now: time.Now,
	sleepUntil: func(t time.Time) {
		if d := time.Until(t); d > 0 {
			time.Sleep(d)
		}
	},
}

// poissonSchedule returns seeded Poisson arrival offsets at rate per second
// over seconds.
func poissonSchedule(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop issues request i no earlier than start+due[i], from senders
// goroutines taking requests in due order. A request whose sender is still
// busy goes out late; send receives both the due time and the actual send
// time, so latency is measured from when the request was due.
func openLoop(clk clock, start time.Time, due []time.Duration, senders int, send func(w, i int, dueAt, sentAt time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				clk.sleepUntil(at)
				send(w, i, at, clk.now())
			}
		}(w)
	}
	wg.Wait()
}

// jobOutcome classifies one submitted job: ok when it was admitted (202),
// reached the done state, and its checksum matches. A refusal, a transport
// error, a job that never reached a terminal state or ended failed are
// failures; wrongSum marks the failures that are checksum mismatches.
func jobOutcome(status int, err error, terminal bool, state string, got, want float64) (ok, wrongSum bool) {
	if err != nil || status != http.StatusAccepted || !terminal || state != string(taskserve.JobDone) {
		return false, false
	}
	if !checksumOK(got, want) {
		return false, true
	}
	return true, false
}

// tally counts outcomes into a report.
type tally struct{ attempted, failed, wrong int64 }

func (t *tally) add(ok, wrong bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
	if wrong {
		t.wrong++
	}
}

func (t *tally) into(rep *report) {
	rep.Attempted += t.attempted
	rep.Failed += t.failed
	rep.Wrong += t.wrong
}

// serveReq is one open-loop request and what became of its job.
type serveReq struct {
	due, sent, acked time.Time
	status           int
	err              error
	job              *taskserve.Job
	view             taskserve.JobView
	terminal         bool
}

type serveBench struct {
	node   *node
	client *http.Client
	ref    []float64
	jdir   string
}

func (b *serveBench) setup(dir string) error {
	ref, err := probeRef()
	if err != nil {
		return err
	}
	b.ref = ref
	b.jdir = filepath.Join(dir, "journal")
	n, err := startNode(serveConfig(b.jdir))
	if err != nil {
		return err
	}
	b.node = n
	b.client = newClient(nproc())
	var st taskserve.Stats
	if code, err := doJSON(b.client, http.MethodGet, n.url+"/v1/stats", nil, &st); err != nil || code != http.StatusOK {
		return fmt.Errorf("node not serving: status %d: %v", code, err)
	}
	return nil
}

func (b *serveBench) close() {
	if b.node != nil {
		_ = b.node.close()
		b.node = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// closedLoop submits n jobs over HTTP from nproc senders, each sending its
// next job when the previous one is acknowledged, waits for every job, and
// returns the acknowledgement rate reached.
func (b *serveBench) closedLoop(n int) (float64, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	jobs := make([]*taskserve.Job, n)
	errs := make(chan error, nproc())
	t0 := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var v taskserve.JobView
				code, err := doJSON(b.client, http.MethodPost, b.node.url+"/v1/jobs", serveBody, &v)
				if err != nil || code != http.StatusAccepted {
					errs <- fmt.Errorf("closed-loop submit: status %d: %v", code, err)
					return
				}
				if j, ok := b.node.srv.Job(v.ID); ok {
					jobs[i] = j
				}
			}
		}()
	}
	wg.Wait()
	rate := float64(n) / time.Since(t0).Seconds()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	for _, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.Done():
		case <-time.After(drainWait):
			return 0, fmt.Errorf("closed-loop job %s never finished", j.ID())
		}
	}
	return rate, nil
}

// window runs one open-loop window of seconds at serveRate. tr != nil makes
// it the traced window, which also replays a prefix of the schedule through
// Server.Submit and measures the journal directly.
func (b *serveBench) window(seed int64, seconds float64, tr *tracer, rep *report) (map[string]value, error) {
	srv := b.node.srv
	due := poissonSchedule(rand.New(rand.NewSource(seed)), serveRate, seconds)
	reqs := make([]serveReq, len(due))
	idx := make(chan int, len(due)) // one slot per request: senders never block
	abandon := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := range idx {
			select {
			case <-reqs[i].job.Done():
				reqs[i].view, reqs[i].terminal = reqs[i].job.View(), true
			case <-abandon:
			}
		}
	}()

	var skew *skewSampler
	if tr != nil {
		skew = startSkewSampler(srv.Runtime().Counters(), 2*time.Millisecond)
	}
	ctrNames := []string{"/journal/appends", "/journal/fsyncs", "/threads/count/wakeups",
		"/threads/count/park-timeouts", "/control/actuations", "/control/vetoes"}
	ctr0, dec0 := readCounters(srv, ctrNames...), grainDecisions(srv)
	rss := startRSSSampler()
	p0 := readProc()
	c0 := cpuTime()
	start := time.Now().Add(5 * time.Millisecond)
	var scrapes []float64
	scrapeFail := 0
	nextScrape := start
	openLoop(wallClock, start, due, nproc(), func(w, i int, dueAt, sentAt time.Time) {
		if w == 0 && !sentAt.Before(nextScrape) {
			// The operator's read path shares the senders: sender 0 scrapes
			// once a second, delaying its next request like a real poller.
			nextScrape = nextScrape.Add(time.Second)
			s0 := time.Now()
			ok := scrapeMetrics(b.client, b.node.url)
			s1 := time.Now()
			tr.record(tr.newID(), 0, "http.GET /metrics", s0, s1)
			if !ok {
				scrapeFail++
			} else {
				scrapes = append(scrapes, ms(s1.Sub(s0)))
			}
			sentAt = time.Now()
		}
		r := &reqs[i]
		r.due, r.sent = dueAt, sentAt
		var v taskserve.JobView
		r.status, r.err = doJSON(b.client, http.MethodPost, b.node.url+"/v1/jobs", serveBody, &v)
		r.acked = time.Now()
		if r.err == nil && r.status == http.StatusAccepted {
			if j, ok := srv.Job(v.ID); ok {
				r.job = j
				idx <- i
			}
		}
	})
	close(idx)
	t := time.AfterFunc(drainWait, func() { close(abandon) })
	<-collected
	t.Stop()
	cpu := cpuTime() - c0
	p1 := readProc()
	rssPeak, slices := rss.finish()
	ctr1, dec1 := readCounters(srv, ctrNames...), grainDecisions(srv)

	var tl tally
	var acks, dones, lates, httpAcks, queues, execs []float64
	var execSum, e2eSum float64
	for i := range reqs {
		r := &reqs[i]
		ok, wrong := jobOutcome(r.status, r.err, r.terminal, string(r.view.State), checksumOf(r.view), serveWant)
		tl.add(ok, wrong)
		lates = append(lates, ms(r.sent.Sub(r.due)))
		if !ok {
			acks, dones = append(acks, ms(failedLatency)), append(dones, ms(failedLatency))
			continue
		}
		fin, started, submitted := *r.view.FinishedAt, *r.view.StartedAt, r.view.SubmittedAt
		acks = append(acks, ms(r.acked.Sub(r.due)))
		dones = append(dones, ms(fin.Sub(r.due)))
		httpAcks = append(httpAcks, us(r.acked.Sub(r.sent)))
		queues = append(queues, ms(started.Sub(submitted)))
		execs = append(execs, ms(fin.Sub(started)))
		execSum += fin.Sub(started).Seconds()
		e2eSum += fin.Sub(r.due).Seconds()
		if tr != nil {
			id := tr.newID()
			tr.recordWithID(id, id, 0, "job", r.due, fin)
			tr.record(id, id, "loadgen.late", r.due, r.sent)
			tr.record(id, id, "http.POST /v1/jobs", r.sent, r.acked)
			tr.record(id, id, "taskserve.queue", submitted, started)
			tr.record(id, id, "taskserve.exec", started, fin)
		}
	}
	tl.attempted += int64(len(scrapes) + scrapeFail)
	tl.failed += int64(scrapeFail)
	tl.into(rep)
	okJobs := float64(len(httpAcks))

	e := map[string]value{}
	setTiming(e, "ack_p50_ms", "ack_p99_ms", chunkedTail(acks))
	setTiming(e, "done_p50_ms", "done_p99_ms", chunkedTail(dones))
	e["jobs_per_s"] = value{V: okJobs / seconds, N: len(httpAcks), Note: "correct terminal jobs / window"}
	e["cpu_ms_per_job"] = value{V: ratio(ms(cpu), okJobs), N: len(httpAcks), Note: "process CPU, load generator included"}
	if err := stencilOnNode(srv.Runtime(), b.ref, tr, e, rep); err != nil {
		return nil, err
	}
	e["rss_peak_mb"] = value{V: rssPeak, N: slices, Note: "median of per-second peaks"}
	if tr == nil {
		return e, nil
	}

	l := rep.Layer
	skew.finish(l)
	setTiming(l, "taskserve.http_ack_us.p50", "taskserve.http_ack_us.p99", summarize(httpAcks, 0.99))
	setTiming(l, "taskserve.queue_ms.p50", "taskserve.queue_ms.p99", summarize(queues, 0.99))
	setTiming(l, "taskserve.exec_ms.p50", "taskserve.exec_ms.p99", summarize(execs, 0.99))
	setTiming(l, "telemetry.scrape_ms.p50", "telemetry.scrape_ms.p99", summarize(scrapes, 0.99))
	l["taskserve.exec_share"] = value{V: ratio(execSum, e2eSum), N: len(execs), Note: "Σexec / Σ(due→finished)"}
	l["taskserve.allocs_per_job"] = value{V: ratio(float64(p1.mallocs-p0.mallocs), okJobs), N: len(execs), Note: "process-wide, generator included"}
	l["taskserve.bytes_per_job"] = value{V: ratio(float64(p1.bytes-p0.bytes), okJobs), N: len(execs)}
	l["taskserve.store_retained"] = value{V: float64(len(srv.Jobs())), N: 1}
	d := func(name string) float64 { return ctr1[name] - ctr0[name] }
	l["journal.appends_per_job"] = value{V: ratio(d("/journal/appends"), okJobs), N: len(execs)}
	l["journal.fsyncs_per_job"] = value{V: ratio(d("/journal/fsyncs"), okJobs), N: len(execs)}
	l["journal.group_size"] = value{V: ratio(d("/journal/appends"), d("/journal/fsyncs")), N: int(d("/journal/fsyncs")), Note: "appends / fsyncs"}
	l["taskrt.wakeups_per_job"] = value{V: ratio(d("/threads/count/wakeups"), okJobs), N: len(execs)}
	l["taskrt.park_timeouts_per_s"] = value{V: d("/threads/count/park-timeouts") / seconds, N: 1}
	l["policyengine.actuations"] = value{V: d("/control/actuations"), N: 1}
	l["policyengine.vetoes"] = value{V: d("/control/vetoes"), N: 1}
	l["adaptive.grain_moves"] = value{V: dec1 - dec0, N: 1}
	l["adaptive.final_grain.stencil1d"] = value{V: srv.Runtime().Counters().Snapshot().Get("/server/grain{stencil1d}/current"), N: 1}
	lateT := summarize(lates, 0.99)
	l["loadgen.late_p99_ms"] = value{V: lateT.Tail, N: lateT.N, Note: fmt.Sprintf("p%.4g of send − due", lateT.TailP*100)}
	l["loadgen.sent"] = value{V: float64(len(reqs)), N: 1}
	l["loadgen.ok"] = value{V: okJobs, N: 1}
	l["loadgen.failed"] = value{V: float64(tl.failed), N: 1}
	cycles, pause := gcDelta(p0, p1)
	l["proc.gc_cycles"] = value{V: cycles, N: 1}
	l["proc.gc_pause_p99_us"] = value{V: pause, N: int(cycles)}
	if err := shedStats(b.client, b.node.url, l); err != nil {
		return nil, err
	}
	if err := b.replaySubmit(due, tr, rep); err != nil {
		return nil, err
	}
	if err := journalProbe(filepath.Join(filepath.Dir(b.jdir), "probe-journal"), b.jdir,
		int(d("/journal/appends")), ctr1["/journal/appends"], tr, l, rep); err != nil {
		return nil, err
	}
	return e, nil
}

// checksumOf returns a view's result checksum, 0 when it has no result.
func checksumOf(v taskserve.JobView) float64 {
	if v.Result == nil {
		return 0
	}
	return v.Result.Checksum
}

// scrapeMetrics GETs /metrics and validates the OpenMetrics exposition.
func scrapeMetrics(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n, err := telemetry.ValidateOpenMetrics(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && n > 0
}

// shedStats reads the per-cause shed counts from /v1/stats, cumulative
// since the node started and unfiltered.
func shedStats(c *http.Client, base string, l map[string]value) error {
	var st taskserve.Stats
	if code, err := doJSON(c, http.MethodGet, base+"/v1/stats", nil, &st); err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d: %v", code, err)
	}
	addShed(l, st)
	return nil
}

// addShed adds one node's shed counts to the per-layer metrics.
func addShed(l map[string]value, st taskserve.Stats) {
	for name, v := range map[string]int64{
		"taskserve.shed_overload": st.ShedByOverload,
		"taskserve.shed_queue":    st.ShedByQueue,
		"taskserve.shed_backlog":  st.ShedByBacklog,
	} {
		l[name] = value{V: l[name].V + float64(v), N: 1, Note: "cumulative since node start"}
	}
}

// replaySubmit replays the first replaySeconds of the schedule at the same
// rate through Server.Submit, so HTTP+JSON cost = http_ack − submit.
func (b *serveBench) replaySubmit(due []time.Duration, tr *tracer, rep *report) error {
	n := len(due)
	for n > 0 && due[n-1] >= time.Duration(replaySeconds*float64(time.Second)) {
		n--
	}
	srv := b.node.srv
	jobs := make([]*taskserve.Job, n)
	lat := make([]float64, n)
	refused := make([]bool, n)
	openLoop(wallClock, time.Now().Add(5*time.Millisecond), due[:n], nproc(), func(_, i int, _, _ time.Time) {
		t0 := time.Now()
		j, se := srv.Submit(serveSpec)
		t1 := time.Now()
		lat[i] = us(t1.Sub(t0))
		tr.record(tr.newID(), 0, "taskserve.Submit", t0, t1)
		if se != nil {
			refused[i] = true
			return
		}
		jobs[i] = j
	})
	var tl tally
	var oks []float64
	for i, j := range jobs {
		if refused[i] || j == nil {
			tl.add(false, false)
			continue
		}
		select {
		case <-j.Done():
		case <-time.After(drainWait):
		}
		v := j.View()
		ok, wrong := jobOutcome(http.StatusAccepted, nil, v.State.Terminal(), string(v.State), checksumOf(v), serveWant)
		tl.add(ok, wrong)
		if ok {
			oks = append(oks, lat[i])
		}
	}
	tl.into(rep)
	setTiming(rep.Layer, "taskserve.submit_us.p50", "taskserve.submit_us.p99", summarize(oks, 0.99))
	return nil
}

// journalProbe times Append and AppendBatch on a fresh fsync=always journal
// next to the workload's, with as many records (capped) as the window
// appended and the workload journal's mean record size.
func journalProbe(dir, workloadDir string, records int, totalAppends float64, tr *tracer, l map[string]value, rep *report) error {
	records = min(max(records, batchJobs), journalProbeMax)
	size := int(ratio(float64(dirBytes(workloadDir)), totalAppends))
	size = max(size, 16)
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	var single, batched []float64
	for i := 0; i < records; i++ {
		t0 := time.Now()
		if _, err := j.Append(payload); err != nil {
			j.Close()
			return err
		}
		t1 := time.Now()
		single = append(single, us(t1.Sub(t0)))
		tr.record(tr.newID(), 0, "journal.Append", t0, t1)
	}
	batch := make([][]byte, batchJobs)
	for i := range batch {
		batch[i] = payload
	}
	for i := 0; i < records/batchJobs; i++ {
		t0 := time.Now()
		if _, err := j.AppendBatch(batch); err != nil {
			j.Close()
			return err
		}
		t1 := time.Now()
		batched = append(batched, us(t1.Sub(t0)))
		tr.record(tr.newID(), 0, "journal.AppendBatch", t0, t1)
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.Attempted += int64(len(single) + len(batched))
	l["journal.append_us"] = value{V: median(single), N: len(single), Note: fmt.Sprintf("median, %d-byte records", size)}
	l["journal.append_batch_us"] = value{V: median(batched), N: len(batched), Note: fmt.Sprintf("median, %d records per call", batchJobs)}
	return os.RemoveAll(dir)
}

func runServeSingle(opt options) (*report, error) {
	rep := newReport("serve-single")
	cfg := serveConfig("<work>/journal")
	rep.Meta["config"] = map[string]any{
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"rate_jobs_per_s": serveRate, "spec": string(serveBody), "senders": nproc(), "connections": nproc(),
		"workers": cfg.Workers, "sample_interval": cfg.SampleInterval.String(), "max_queued_jobs": cfg.MaxQueuedJobs,
		"shed_min_tasks": cfg.ShedMinTasks, "journal_fsync": cfg.JournalFsync, "warmup_jobs": warmupJobs,
		"journal_dir": "inside the checkout (.bench_build)",
	}
	b := &serveBench{}
	defer b.close()
	setup := func(i int) error { return b.setup(filepath.Join(opt.workDir, fmt.Sprintf("setup%d", i))) }
	if err := timeSetups(rep, opt.setups, setup, b.close); err != nil {
		return nil, err
	}
	// Warm-up, excluded from set-up: fill the store past its retention
	// bound, then measure the closed-loop capacity of the full-store path,
	// the figure serveRate is a third of.
	if _, err := b.closedLoop(warmupJobs); err != nil {
		return nil, err
	}
	capacity, err := b.closedLoop(capacityJobs)
	if err != nil {
		return nil, err
	}
	rep.Meta["closed_loop_capacity_jobs_per_s"] = capacity
	window := 0
	return finishWindows(rep, opt, func(seconds float64, tr *tracer) (map[string]value, error) {
		window++
		return b.window(opt.seed*1000+int64(window), seconds, tr, rep)
	})
}

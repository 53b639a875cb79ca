package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"taskgrain/internal/counters"
	"taskgrain/internal/future"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

// The stencil-ucurve workload is the paper's HPX-Stencil at two grains: 160
// points per partition (the finest grain the paper sweeps, where scheduler
// overhead dominates) and 20,000 (near the bottom of the U on a 2-core
// host), on a 1,000,000-point ring for 20 steps.
const (
	ringPoints  = 1_000_000
	ringSteps   = 20
	fineGrain   = 160
	midGrain    = 20_000
	probesRound = 200 // spawn probes after each fine+mid round
	// probeSteps is the step count of the shorter stencil pair the serving
	// workloads run on their node's runtime after the timed window.
	probeSteps = 8
	probeReps  = 15
	// stencilTol is the relative tolerance of a stencil run against
	// stencil.Reference: both evaluate the same expression per point in the
	// same order, so any difference beyond rounding noise is a defect.
	stencilTol = 1e-9
)

func gridConfig(grain, steps int) stencil.Config {
	return stencil.Config{TotalPoints: ringPoints, PointsPerPartition: grain, TimeSteps: steps}
}

// gridStats accumulates one grain's runs and the counter deltas across them.
type gridStats struct {
	secs                    []float64
	execNs, funcNs, tasks   float64
	pendAcc, pendMiss, stol float64
	mallocs, bytes          float64 // only when allocations were measured
	wrong                   int
}

// runGrid times one stencil.Run on rt, checks it against ref, and adds the
// run's counter deltas to st. measureAllocs brackets the run with
// ReadMemStats (a stop-the-world, so only in traced windows).
func runGrid(rt *taskrt.Runtime, cfg stencil.Config, ref []float64, st *gridStats, tr *tracer, measureAllocs bool) error {
	reg := rt.Counters()
	var p0 procStats
	if measureAllocs {
		p0 = readProc()
	}
	s0 := reg.Snapshot()
	t0 := time.Now()
	sol, err := stencil.Run(rt, cfg)
	t1 := time.Now()
	s1 := reg.Snapshot()
	if measureAllocs {
		p1 := readProc()
		st.mallocs += float64(p1.mallocs - p0.mallocs)
		st.bytes += float64(p1.bytes - p0.bytes)
	}
	if err != nil {
		return err
	}
	tr.record(tr.newID(), 0, fmt.Sprintf("stencil.Run/%d", cfg.PointsPerPartition), t0, t1)
	d := s1.Sub(s0)
	st.secs = append(st.secs, t1.Sub(t0).Seconds())
	st.execNs += d.Get(counters.TimeExecTotal)
	st.funcNs += d.Get(counters.TimeFuncTotal)
	st.tasks += d.Get(counters.CountCumulative)
	st.pendAcc += d.Get(counters.PendingAccesses)
	st.pendMiss += d.Get(counters.PendingMisses)
	st.stol += d.Get(counters.CountStolen)
	if !solutionMatches(sol, ref) {
		st.wrong++
	}
	return nil
}

// solutionMatches compares every point of sol with the reference ring.
func solutionMatches(sol *stencil.Solution, ref []float64) bool {
	scale := 0.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	i := 0
	for _, part := range sol.Final {
		for _, v := range part {
			if i >= len(ref) || math.Abs(v-ref[i]) > stencilTol*math.Max(scale, 1) {
				return false
			}
			i++
		}
	}
	return i == len(ref)
}

// probe times one single-task round trip through the runtime: ack is spawn
// to the task's first instruction, done is spawn to the caller seeing the
// result. On an idle runtime this is the park→wake path.
func probe(rt *taskrt.Runtime, tr *tracer) (ack, done time.Duration, ok bool) {
	t0 := time.Now()
	f := future.Async(rt, func() time.Duration { return time.Since(t0) })
	ack = f.Wait()
	t1 := time.Now()
	done = t1.Sub(t0)
	if tr != nil {
		id := tr.newID()
		tr.recordWithID(id, id, 0, "taskrt.probe", t0, t1)
		tr.record(id, id, "taskrt.spawn_to_start", t0, t0.Add(ack))
	}
	return ack, done, ack > 0 && ack <= done
}

// layerGrid fills the Eq. 1–3 and Eq. 5 per-layer metrics of one grain.
// td1 is the one-core task duration for Eq. 5 (0 = not calibrated).
func layerGrid(l map[string]value, suffix string, st *gridStats, td1 float64) {
	n := len(st.secs)
	l["taskrt.tasks."+suffix] = value{V: st.tasks / float64(max(n, 1)), N: n, Note: "per run"}
	l["taskrt.idle_rate."+suffix] = value{V: ratio(st.funcNs-st.execNs, st.funcNs), N: n, Note: "Eq. 1"}
	l["taskrt.overhead_ns."+suffix] = value{V: ratio(st.funcNs-st.execNs, st.tasks), N: n, Note: "Eq. 3 t_o"}
	switch suffix {
	case "fine":
		l["taskrt.pending_miss_ratio.fine"] = value{V: ratio(st.pendMiss, st.pendAcc), N: n, Note: "misses/accesses"}
		l["taskrt.stolen_per_task.fine"] = value{V: ratio(st.stol, st.tasks), N: n}
		if st.mallocs > 0 {
			l["stencil.allocs_per_task.fine"] = value{V: st.mallocs / st.tasks, N: n, Note: "process mallocs / tasks"}
			l["stencil.bytes_per_task.fine"] = value{V: st.bytes / st.tasks, N: n}
		}
	case "mid":
		td := ratio(st.execNs, st.tasks)
		l["taskrt.task_ns.mid"] = value{V: td, N: n, Note: "Eq. 2 t_d"}
		if td1 > 0 {
			l["taskrt.wait_ns.mid"] = value{V: td - td1, N: n, Note: fmt.Sprintf("Eq. 5, t_d1=%.0fns", td1)}
		}
	}
}

// skewSampler snapshots a registry every interval and counts snapshots in
// which pending-misses exceed pending-accesses (the registry's weakly
// consistent read order); the count is reported exactly as read.
type skewSampler struct {
	stop  chan struct{}
	done  chan struct{}
	total int
	skew  int
}

func startSkewSampler(reg *counters.Registry, every time.Duration) *skewSampler {
	s := &skewSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
				snap := reg.Snapshot()
				s.total++
				if snap.Get(counters.PendingMisses) > snap.Get(counters.PendingAccesses) {
					s.skew++
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and stores its counts.
func (s *skewSampler) finish(l map[string]value) {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
	l["counters.skew_snapshots"] = value{V: float64(s.skew), N: s.total, Note: "misses > accesses, unfiltered"}
	l["counters.snapshots"] = value{V: float64(s.total), N: s.total}
}

// stencilBench is one set-up of the stencil-ucurve workload.
type stencilBench struct {
	rt  *taskrt.Runtime
	ref []float64
	td1 float64 // one-core t_d at the mid grain, ns
}

// setup starts the nproc-worker runtime, computes the reference ring, and
// calibrates the one-core mid-grain task duration (Eq. 5's t_d1).
func (b *stencilBench) setup() error {
	ref, err := stencil.Reference(gridConfig(midGrain, ringSteps))
	if err != nil {
		return err
	}
	b.ref = ref
	one := taskrt.New(taskrt.WithWorkers(1))
	one.Start()
	var cal gridStats
	err = runGrid(one, gridConfig(midGrain, ringSteps), ref, &cal, nil, false)
	one.Shutdown()
	if err != nil {
		return err
	}
	if cal.wrong > 0 {
		return fmt.Errorf("one-core calibration run disagrees with stencil.Reference")
	}
	b.td1 = ratio(cal.execNs, cal.tasks)
	b.rt = taskrt.New(taskrt.WithWorkers(runtime.NumCPU()))
	b.rt.Start()
	return nil
}

func (b *stencilBench) close() {
	if b.rt != nil {
		b.rt.Shutdown()
		b.rt = nil
	}
}

// window runs fine+mid rounds, each followed by spawn probes, until seconds
// have passed; tr != nil makes it the traced window.
func (b *stencilBench) window(seconds float64, tr *tracer, rep *report) (map[string]value, error) {
	var fine, mid gridStats
	var acks, dones []float64
	traced := tr != nil
	var skew *skewSampler
	if traced {
		skew = startSkewSampler(b.rt.Counters(), 2*time.Millisecond)
	}
	rss := startRSSSampler()
	p0 := readProc()
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	probesOK, probesBad := 0, 0
	for len(fine.secs) == 0 || time.Now().Before(deadline) {
		if err := runGrid(b.rt, gridConfig(fineGrain, ringSteps), b.ref, &fine, tr, traced); err != nil {
			return nil, err
		}
		if err := runGrid(b.rt, gridConfig(midGrain, ringSteps), b.ref, &mid, tr, false); err != nil {
			return nil, err
		}
		for i := 0; i < probesRound; i++ {
			a, d, ok := probe(b.rt, tr)
			if !ok {
				probesBad++
				continue
			}
			probesOK++
			acks = append(acks, ms(a))
			dones = append(dones, ms(d))
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu := cpuTime() - c0
	p1 := readProc()
	rssPeak, slices := rss.finish()

	runs := len(fine.secs) + len(mid.secs)
	wrong := fine.wrong + mid.wrong
	rep.Attempted += int64(runs + probesOK + probesBad)
	rep.Failed += int64(wrong + probesBad)
	rep.Wrong += int64(wrong)

	e := map[string]value{}
	e["stencil_fine_s"] = value{V: median(fine.secs), N: len(fine.secs), Note: "median stencil.Run, grain 160"}
	e["stencil_mid_s"] = value{V: median(mid.secs), N: len(mid.secs), Note: "median stencil.Run, grain 20000"}
	setTiming(e, "ack_p50_ms", "ack_p99_ms", chunkedTail(acks))
	setTiming(e, "done_p50_ms", "done_p99_ms", chunkedTail(dones))
	e["jobs_per_s"] = value{V: float64(runs) / elapsed, N: runs, Note: "stencil.Run calls per second"}
	e["cpu_ms_per_job"] = value{V: ms(cpu) / float64(runs), N: runs, Note: "per stencil.Run, probes included"}
	e["rss_peak_mb"] = value{V: rssPeak, N: slices, Note: "median of per-second peaks"}
	if traced {
		skew.finish(rep.Layer)
		layerGrid(rep.Layer, "fine", &fine, 0)
		layerGrid(rep.Layer, "mid", &mid, b.td1)
		cycles, pause := gcDelta(p0, p1)
		rep.Layer["proc.gc_cycles"] = value{V: cycles, N: 1}
		rep.Layer["proc.gc_pause_p99_us"] = value{V: pause, N: int(cycles)}
	}
	return e, nil
}

func runStencilUcurve(opt options) (*report, error) {
	rep := newReport("stencil-ucurve")
	rep.Meta["config"] = map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"ring_points": ringPoints, "steps": ringSteps, "grains": []int{fineGrain, midGrain},
		"workers": runtime.NumCPU(), "probes_per_round": probesRound,
	}
	b := &stencilBench{}
	defer b.close()
	if err := timeSetups(rep, opt.setups, func(int) error { return b.setup() }, b.close); err != nil {
		return nil, err
	}
	// Warm-up, excluded from set-up: one run per grain on the fresh runtime.
	var warm gridStats
	for _, g := range []int{fineGrain, midGrain} {
		if err := runGrid(b.rt, gridConfig(g, ringSteps), b.ref, &warm, nil, false); err != nil {
			return nil, err
		}
	}
	if warm.wrong > 0 {
		return nil, fmt.Errorf("warm-up run disagrees with stencil.Reference")
	}
	return finishWindows(rep, opt, func(seconds float64, tr *tracer) (map[string]value, error) {
		return b.window(seconds, tr, rep)
	})
}

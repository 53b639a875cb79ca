package main

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0},
		{10, 0},
		{11, 1 - 10.0/11},
		{100, 0.90},
		{200, 0.95},
		{1000, 0.99},
		{5000, 0.99}, // capped at the named percentile
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 0.99); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, n := range []int{11, 57, 100, 333, 1000, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // reversed: summarize must sort
		}
		tm := summarize(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > tm.Tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the p%.4g tail, want >= %d", n, beyond, tm.TailP*100, minBeyond)
		}
		if tm.N != n || tm.Median != float64(n-1)/2 {
			t.Errorf("n=%d: N=%d median=%v", n, tm.N, tm.Median)
		}
	}
	if tm := summarize([]float64{3, 1, 2}, 0.99); tm.TailP != 0 || tm.Tail != 3 {
		t.Errorf("too few samples: got tail %v at p%v, want the max and no percentile", tm.Tail, tm.TailP)
	}
}

func TestChunkedTailIsMedianOfChunkTails(t *testing.T) {
	series := func(stalled ...int) []float64 {
		xs := make([]float64, 3*tailChunk)
		for i := range xs {
			xs[i] = 1
		}
		for _, c := range stalled {
			for i := c * tailChunk; i < c*tailChunk+50; i++ {
				xs[i] = 100
			}
		}
		return xs
	}
	if tm := chunkedTail(series(1)); tm.Tail != 1 || tm.Chunks != 3 {
		t.Errorf("one stalled chunk: tail %v over %d chunks, want 1 over 3", tm.Tail, tm.Chunks)
	}
	if tm := chunkedTail(series(0, 2)); tm.Tail != 100 {
		t.Errorf("two of three chunks stalled: tail %v, want 100", tm.Tail)
	}
	if tm := chunkedTail(make([]float64, tailChunk+5)); tm.Chunks != 0 || tm.TailP != 0.99 {
		t.Errorf("one chunk: want the plain p99, got chunks=%d p=%v", tm.Chunks, tm.TailP)
	}
}

// fakeClock advances only when a sender sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Time { return f.now },
		sleepUntil: func(t time.Time) {
			if t.After(f.now) {
				f.now = t
			}
		},
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	start := fc.now
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 20 * time.Millisecond}
	const service = 5 * time.Millisecond
	var late, latency []time.Duration
	openLoop(fc.clock(), start, due, 1, func(_, i int, dueAt, sentAt time.Time) {
		if !dueAt.Equal(start.Add(due[i])) {
			t.Errorf("request %d: due %v, want %v", i, dueAt.Sub(start), due[i])
		}
		fc.now = fc.now.Add(service) // the request occupies the only sender
		late = append(late, sentAt.Sub(dueAt))
		latency = append(latency, fc.now.Sub(dueAt))
	})
	// One sender, 5ms per request: requests 1 and 2 queue behind request 0;
	// request 3 is due after the backlog clears and goes out on time.
	wantLate := []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond, 0}
	for i := range wantLate {
		if late[i] != wantLate[i] {
			t.Errorf("request %d: late %v, want %v", i, late[i], wantLate[i])
		}
		if latency[i] != wantLate[i]+service {
			t.Errorf("request %d: latency from due %v, want %v", i, latency[i], wantLate[i]+service)
		}
	}
}

func TestFailureCounting(t *testing.T) {
	const want = 610
	cases := []struct {
		name     string
		status   int
		err      error
		terminal bool
		state    string
		sum      float64
		ok, bad  bool
	}{
		{"done", http.StatusAccepted, nil, true, "done", want, true, false},
		{"within tolerance", http.StatusAccepted, nil, true, "done", want * (1 + 1e-12), true, false},
		{"refused", http.StatusTooManyRequests, nil, false, "", 0, false, false},
		{"unavailable", http.StatusServiceUnavailable, nil, false, "", 0, false, false},
		{"transport error", 0, errors.New("reset"), false, "", 0, false, false},
		{"never terminal", http.StatusAccepted, nil, false, "running", 0, false, false},
		{"job failed", http.StatusAccepted, nil, true, "failed", 0, false, false},
		{"wrong checksum", http.StatusAccepted, nil, true, "done", want + 1, false, true},
	}
	var tl tally
	for _, c := range cases {
		ok, bad := jobOutcome(c.status, c.err, c.terminal, c.state, c.sum, want)
		if ok != c.ok || bad != c.bad {
			t.Errorf("%s: ok=%v wrong=%v, want ok=%v wrong=%v", c.name, ok, bad, c.ok, c.bad)
		}
		tl.add(ok, bad)
	}
	if tl.attempted != int64(len(cases)) || tl.failed != 6 || tl.wrong != 1 {
		t.Errorf("tally attempted=%d failed=%d wrong=%d, want %d 6 1", tl.attempted, tl.failed, tl.wrong, len(cases))
	}
	rep := newReport("x")
	tl.into(rep)
	if lr := resultLine([]*report{rep}, false); lr.Correct || lr.Failed != 6 || lr.Attempted != 8 {
		t.Errorf("result line %+v: a wrong checksum must clear correct", lr)
	}
}

func TestFibClosedForm(t *testing.T) {
	a, b := 0.0, 1.0
	for n := 0; n <= 40; n++ {
		if got := fibClosedForm(n); got != a {
			t.Fatalf("fib(%d) = %v, want %v", n, got, a)
		}
		a, b = b, a+b
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "job", Start: 0, End: 10},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 2, End: 4},
		{Trace: 1, ID: 3, Parent: 1, Name: "a", Start: 3, End: 6},
		{Trace: 1, ID: 4, Parent: 1, Name: "b", Start: 8, End: 12}, // overhangs the parent
	}
	for _, st := range selfTimes(spans) {
		if st.Name == "job" && st.SelfMs*1e3 != 4 {
			t.Errorf("job self time %vus, want 4us (10 minus covered 2–6 and 8–10)", st.SelfMs*1e3)
		}
	}
}

func TestResultLineHasEveryMetric(t *testing.T) {
	rep := newReport("w")
	rep.Attempted = 1
	for _, traced := range []bool{false, true} {
		defs := e2eMetrics
		if traced {
			defs = layerMetrics
		}
		lr := resultLine([]*report{rep}, traced)
		if len(lr.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(lr.Metrics), len(defs))
		}
	}
}

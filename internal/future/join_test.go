package future

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"taskgrain/internal/taskrt"
)

// The pending node of a 3-dependency stencil task stays small: a cheaper
// Dataflow lets the stencil's builder run far ahead of the workers, so every
// pending node's size shows up in peak memory.
func TestPendingNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(join[[]float64, []float64]{}); n > 160 {
		t.Fatalf("pending Dataflow node is %d B, want <= 160", n)
	}
}

func sum3(vs []int) int { return vs[0] + vs[1] + vs[2] }

// Dataflow over three pending dependencies, from creation through Wait.
func TestDataflowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := newRT(t, 2)
	var p [3]*Promise[int]
	var f [3]*Future[int]
	promises := testing.AllocsPerRun(200, func() {
		for i := range p {
			p[i], f[i] = NewPromise[int]()
		}
	})
	total := testing.AllocsPerRun(200, func() {
		for i := range p {
			p[i], f[i] = NewPromise[int]()
		}
		out := Dataflow(rt, sum3, []*Future[int]{f[0], f[1], f[2]})
		for i := range p {
			p[i].Set(i + 1)
		}
		if out.Wait() != 6 {
			panic("wrong sum")
		}
	})
	got := total - promises
	t.Logf("Dataflow(3 pending deps)+Wait: %.1f allocs", got)
	if got > 8 {
		t.Fatalf("Dataflow(3 pending deps)+Wait = %.1f allocs, want <= 8", got)
	}
}

func TestAsyncWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := newRT(t, 2)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		i++
		// A capturing body, as at most call sites.
		if Async(rt, func() int { return i }).Wait() != i {
			panic("wrong value")
		}
	})
	t.Logf("Async+Wait: %.1f allocs", got)
	if got > 8 {
		t.Fatalf("Async+Wait = %.1f allocs, want <= 8", got)
	}
}

func TestDataflowZeroDeps(t *testing.T) {
	rt := newRT(t, 2)
	out := Dataflow(rt, func(vs []int) int { return len(vs) + 5 }, nil)
	if got := out.Wait(); got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
	if vs := WhenAll[int](nil).Wait(); vs != nil {
		t.Fatalf("WhenAll(nil) = %v, want nil", vs)
	}
}

// The np = 1 and np = 2 stencil rings pass one future several times.
func TestDataflowRepeatedDependency(t *testing.T) {
	rt := newRT(t, 2)
	p, f := NewPromise[int]()
	out := Dataflow(rt, sum3, []*Future[int]{f, f, f})
	two := Dataflow(rt, func(vs []int) int { return vs[0] * vs[1] }, []*Future[int]{f, Ready(3)})
	p.Set(4)
	if got := out.Wait(); got != 12 {
		t.Fatalf("f+f+f = %d, want 12", got)
	}
	if got := two.Wait(); got != 12 {
		t.Fatalf("f*3 = %d, want 12", got)
	}
}

// More than three dependencies per node and more than three waiters per
// future both take the overflow path.
func TestDataflowOverflowWaiters(t *testing.T) {
	rt := newRT(t, 3)
	const deps, dependents = 7, 9
	proms := make([]*Promise[int], deps)
	futs := make([]*Future[int], deps)
	for i := range proms {
		proms[i], futs[i] = NewPromise[int]()
	}
	outs := make([]*Future[int], dependents)
	for d := range outs {
		d := d
		outs[d] = Dataflow(rt, func(vs []int) int {
			s := d
			for _, v := range vs {
				s += v
			}
			return s
		}, futs)
	}
	var fired atomic.Int64
	for i := 0; i < 5; i++ {
		futs[0].OnReady(func(int) { fired.Add(1) })
	}
	all := WhenAll(futs)
	for i := len(proms) - 1; i >= 0; i-- {
		proms[i].Set(i + 1)
	}
	for d, o := range outs {
		if got := o.Wait(); got != d+deps*(deps+1)/2 {
			t.Fatalf("dependent %d = %d, want %d", d, got, d+deps*(deps+1)/2)
		}
	}
	if fired.Load() != 5 {
		t.Fatalf("OnReady fired %d times, want 5", fired.Load())
	}
	for i, v := range all.Wait() {
		if v != i+1 {
			t.Fatalf("WhenAll[%d] = %d", i, v)
		}
	}
}

func TestDataflowPanicLeavesFutureUnset(t *testing.T) {
	rt := taskrt.New(taskrt.WithWorkers(2), taskrt.WithPanicHandler(func(*taskrt.Task, any) {}))
	rt.Start()
	defer rt.Shutdown()
	out := Dataflow(rt, func([]int) int { panic("dataflow boom") }, []*Future[int]{Ready(1), Ready(2)})
	rt.WaitIdle()
	if out.Ready() {
		t.Fatal("future of a panicked dataflow task must stay unset")
	}
	if got := Dataflow(rt, sum3, []*Future[int]{Ready(1), Ready(2), Ready(3)}).Wait(); got != 6 {
		t.Fatalf("follow-up dataflow = %d", got)
	}
	if exc, _ := rt.Counters().Value("/threads/count/exceptions"); exc != 1 {
		t.Fatalf("exceptions = %v, want 1", exc)
	}
}

// Many goroutines block in Wait while another sets the value; run under
// -race this checks the waiter list and the value handoff.
func TestWaitRacesSet(t *testing.T) {
	for round := 0; round < 50; round++ {
		p, f := NewPromise[int]()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v := f.Wait(); v != round {
					t.Errorf("round %d: Wait = %d", round, v)
				}
			}()
		}
		go p.Set(round)
		wg.Wait()
	}
}

type payload struct{ data [64]byte }

// startDataflow runs one Dataflow over a fresh input and returns its output
// and a channel closed once the input's value has been collected; nothing
// else keeps the input.
//
//go:noinline
func startDataflow(rt *taskrt.Runtime, pendingInput bool) (*Future[int], <-chan struct{}) {
	in := &payload{}
	in.data[0] = 7
	collected := make(chan struct{})
	runtime.SetFinalizer(in, func(*payload) { close(collected) })
	p, f := NewPromise[*payload]()
	if !pendingInput {
		p.Set(in)
	}
	out := Dataflow(rt, func(vs []*payload) int { return int(vs[0].data[0]) }, []*Future[*payload]{f})
	if pendingInput {
		p.Set(in)
	}
	return out, collected
}

// Once its task has run, a Dataflow node releases its inputs: only the
// output stays reachable through the returned future.
func TestDataflowReleasesInputs(t *testing.T) {
	rt := newRT(t, 2)
	for _, pending := range []bool{false, true} {
		out, collected := startDataflow(rt, pending)
		if got := out.Wait(); got != 7 {
			t.Fatalf("got %d, want 7", got)
		}
		rt.WaitIdle()
		// Finalizers run on their own goroutine after the cycle that found
		// the object unreachable; give a few cycles for that to happen.
		for cycle := 0; ; cycle++ {
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(10 * time.Millisecond):
				if cycle < 20 {
					continue
				}
				t.Fatalf("pending=%v: input still reachable after the task ran", pending)
			}
			break
		}
		runtime.KeepAlive(out)
	}
}

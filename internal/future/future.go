// Package future provides the asynchronous value-composition layer of the
// runtime, mirroring the hpx::future / hpx::async facilities the paper's
// benchmark is written against (Sec. I-C): each task is launched with Async
// returning a Future; Futures compose sequentially (Then), in parallel
// (WhenAll/WhenAny), and into dataflow tasks whose execution is deferred
// until all inputs are ready (Dataflow) — "these compositional facilities
// allow creating task dependencies that mirror the data dependencies
// described by the original algorithm".
//
// Futures here carry plain values; computations that can fail should carry a
// result-like payload (a struct embedding an error) as their value type.
package future

import (
	"sync"
	"sync/atomic"

	"taskgrain/internal/taskrt"
)

// waiter is a completion target registered on a Future: a Dataflow or
// WhenAll join, a blocked Wait, or an OnReady callback. Registering one
// stores an interface value in the cell, never a per-edge closure.
type waiter[T any] interface {
	ready(v T)
}

// funcWaiter adapts an OnReady callback.
type funcWaiter[T any] func(T)

func (fn funcWaiter[T]) ready(v T) { fn(v) }

// chanWaiter wakes a goroutine blocked in Wait.
type chanWaiter[T any] chan struct{}

func (c chanWaiter[T]) ready(T) { close(c) }

// inlineWaiters is how many waiters a Future holds without allocating. The
// stencil's partition futures have exactly three dependents.
const inlineWaiters = 3

// Future is a read handle on an eventually-available value. It is also the
// value's state cell, so a promise/future pair is one allocation.
type Future[T any] struct {
	mu      sync.Mutex
	done    bool
	value   T
	waiters [inlineWaiters]waiter[T]
	more    *[]waiter[T] // waiters beyond the inline ones
}

// Promise is the write handle paired with a Future.
type Promise[T any] struct {
	f Future[T]
}

// NewPromise creates a connected promise/future pair.
func NewPromise[T any]() (*Promise[T], *Future[T]) {
	p := &Promise[T]{}
	return p, &p.f
}

// Ready returns an already-completed future holding v.
func Ready[T any](v T) *Future[T] {
	return &Future[T]{done: true, value: v}
}

// Set completes the future with v, running registered callbacks
// synchronously on the calling goroutine (typically the worker that finished
// producing the value, as in HPX). Setting a promise twice panics.
func (p *Promise[T]) Set(v T) { p.f.set(v) }

// set stores v and fires every registered waiter in registration order.
func (f *Future[T]) set(v T) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		panic("future: promise set twice")
	}
	f.value = v
	f.done = true
	ws := f.waiters
	more := f.more
	f.waiters = [inlineWaiters]waiter[T]{}
	f.more = nil
	f.mu.Unlock()
	for _, w := range ws {
		if w == nil {
			break
		}
		w.ready(v)
	}
	if more != nil {
		for _, w := range *more {
			w.ready(v)
		}
	}
}

// addLocked appends w to the waiters; f.mu must be held and f not done.
func (f *Future[T]) addLocked(w waiter[T]) {
	for i := range f.waiters {
		if f.waiters[i] == nil {
			f.waiters[i] = w
			return
		}
	}
	if f.more == nil {
		f.more = new([]waiter[T])
	}
	*f.more = append(*f.more, w)
}

// register arranges for w to fire once the value is set; if it already is,
// w fires immediately on the caller.
func (f *Future[T]) register(w waiter[T]) {
	f.mu.Lock()
	if f.done {
		v := f.value
		f.mu.Unlock()
		w.ready(v)
		return
	}
	f.addLocked(w)
	f.mu.Unlock()
}

// Future returns the promise's read handle (convenience for code that holds
// only the promise).
func (p *Promise[T]) Future() *Future[T] { return &p.f }

// TryGet returns the value if the future is ready.
func (f *Future[T]) TryGet() (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		var zero T
		return zero, false
	}
	return f.value, true
}

// Ready reports whether the value is available.
func (f *Future[T]) Ready() bool {
	_, ok := f.TryGet()
	return ok
}

// Wait blocks the calling goroutine until the value is available and
// returns it. Use from application (non-task) goroutines; inside a task
// phase use Await, which suspends the task instead of blocking a worker.
func (f *Future[T]) Wait() T {
	f.mu.Lock()
	if f.done {
		v := f.value
		f.mu.Unlock()
		return v
	}
	ch := make(chanWaiter[T])
	f.addLocked(ch)
	f.mu.Unlock()
	<-ch
	v, _ := f.TryGet()
	return v
}

// OnReady registers fn to run when the value becomes available. If the
// future is already complete, fn runs immediately on the caller.
func (f *Future[T]) OnReady(fn func(T)) { f.register(funcWaiter[T](fn)) }

// join is the single allocation behind a Dataflow or WhenAll: the output
// cell, the countdown of unready inputs and the inputs themselves. It
// registers itself as the waiter on every input, so n edges cost no
// allocation beyond the inputs' own waiter slots.
type join[T, U any] struct {
	out     Future[U]
	pending atomic.Int32
	deps    []*Future[T]
	fn      func([]T) U
	rt      *taskrt.Runtime // nil: complete inline on the last input (WhenAll)
	opts    *[]taskrt.SpawnOption
}

// start registers j on every input, firing at once when there are none.
// Registering the same future twice counts it twice, as it should.
func (j *join[T, U]) start() {
	if len(j.deps) == 0 {
		j.fire()
		return
	}
	j.pending.Store(int32(len(j.deps)))
	for _, d := range j.deps {
		d.register(j)
	}
}

// ready counts one input down and fires on the last.
func (j *join[T, U]) ready(T) {
	if j.pending.Add(-1) == 0 {
		j.fire()
	}
}

// fire runs once every input is set: a Dataflow spawns its task, a WhenAll
// completes on the current goroutine.
func (j *join[T, U]) fire() {
	if j.rt == nil {
		j.run(nil)
		return
	}
	var opts []taskrt.SpawnOption
	if j.opts != nil {
		opts = *j.opts
	}
	j.rt.Spawn(j.run, opts...)
}

// run gathers the input values, releases the inputs and fn so the GC can
// reclaim them while the output lives on, and sets the output. A panicking
// fn leaves the output unset.
func (j *join[T, U]) run(*taskrt.Context) {
	var vs []T
	if len(j.deps) > 0 {
		vs = make([]T, len(j.deps))
		for i, d := range j.deps {
			// Every input's set happened before its countdown step, and
			// the last step happened before this run: no lock needed.
			vs[i] = d.value
		}
	}
	fn := j.fn
	j.deps, j.fn, j.opts = nil, nil, nil
	j.out.set(fn(vs))
}

// Async spawns fn as a task on rt and returns the future of its result
// (hpx::async). The task passes through the full staged→pending→active
// lifecycle, so its scheduling cost is visible to every counter.
func Async[T any](rt *taskrt.Runtime, fn func() T, opts ...taskrt.SpawnOption) *Future[T] {
	p, f := NewPromise[T]()
	rt.Spawn(func(*taskrt.Context) { p.Set(fn()) }, opts...)
	return f
}

// AsyncBatch spawns every fn as a task through one Runtime.SpawnBatch
// transaction (single inflight add, batched queue pushes, one wake) and
// returns the futures in input order. Use it where a step fans out many
// independent tasks at once; each task still passes through the full
// staged→pending→active lifecycle.
func AsyncBatch[T any](rt *taskrt.Runtime, fns []func() T, opts ...taskrt.SpawnOption) []*Future[T] {
	outs := make([]*Future[T], len(fns))
	proms := make([]*Promise[T], len(fns))
	bodies := make([]func(*taskrt.Context), len(fns))
	for i, fn := range fns {
		proms[i], outs[i] = NewPromise[T]()
		i, fn := i, fn
		bodies[i] = func(*taskrt.Context) { proms[i].Set(fn()) }
	}
	rt.SpawnBatch(bodies, opts...)
	return outs
}

// AsyncCtx is Async for task bodies that need their scheduling Context.
func AsyncCtx[T any](rt *taskrt.Runtime, fn func(*taskrt.Context) T, opts ...taskrt.SpawnOption) *Future[T] {
	p, f := NewPromise[T]()
	rt.Spawn(func(c *taskrt.Context) { p.Set(fn(c)) }, opts...)
	return f
}

// Then schedules fn as a new task when f completes and returns the future
// of its result (future::then — sequential composition).
func Then[T, U any](rt *taskrt.Runtime, f *Future[T], fn func(T) U, opts ...taskrt.SpawnOption) *Future[U] {
	p, out := NewPromise[U]()
	f.OnReady(func(v T) {
		rt.Spawn(func(*taskrt.Context) { p.Set(fn(v)) }, opts...)
	})
	return out
}

// WhenAll returns a future completing with all input values, in input
// order, once every input is ready (parallel composition). It completes on
// the goroutine that sets the last input. fs is retained until then and must
// not be modified.
func WhenAll[T any](fs []*Future[T]) *Future[[]T] {
	j := &join[T, []T]{deps: fs, fn: identity[T]}
	j.start()
	return &j.out
}

// identity is WhenAll's join function.
func identity[T any](vs []T) []T { return vs }

// AnyResult carries the first-completed input of WhenAny.
type AnyResult[T any] struct {
	Index int // position of the winning future in the input slice
	Value T
}

// WhenAny returns a future completing with the first input to complete.
func WhenAny[T any](fs []*Future[T]) *Future[AnyResult[T]] {
	p, out := NewPromise[AnyResult[T]]()
	if len(fs) == 0 {
		panic("future: WhenAny of no futures")
	}
	var won atomic.Bool
	for i, f := range fs {
		i := i
		f.OnReady(func(v T) {
			if won.CompareAndSwap(false, true) {
				p.Set(AnyResult[T]{Index: i, Value: v})
			}
		})
	}
	return out
}

// When2 completes when two futures of different types are both ready.
func When2[A, B any](fa *Future[A], fb *Future[B]) *Future[struct {
	A A
	B B
}] {
	type pair = struct {
		A A
		B B
	}
	p, out := NewPromise[pair]()
	var remaining atomic.Int64
	remaining.Store(2)
	var res pair
	fa.OnReady(func(v A) {
		res.A = v
		if remaining.Add(-1) == 0 {
			p.Set(res)
		}
	})
	fb.OnReady(func(v B) {
		res.B = v
		if remaining.Add(-1) == 0 {
			p.Set(res)
		}
	})
	return out
}

// Dataflow spawns fn as a task once every dependency is ready, passing the
// dependency values (hpx::dataflow). The task is created lazily — exactly
// the construct HPX-Stencil uses to express each partition-timestep as one
// lightweight thread whose inputs are the three neighbouring partitions of
// the previous step. deps is retained until the task runs and must not be
// modified; the pending node is one allocation whatever the number of deps.
func Dataflow[T, U any](rt *taskrt.Runtime, fn func([]T) U, deps []*Future[T], opts ...taskrt.SpawnOption) *Future[U] {
	j := &join[T, U]{deps: deps, fn: fn, rt: rt}
	if len(opts) > 0 {
		o := opts // a fresh variable, so only calls with options allocate it
		j.opts = &o
	}
	j.start()
	return &j.out
}

// Await suspends the calling task phase until f is ready, then runs cont as
// a new phase of the same task with the value. If f is already ready, cont
// runs inline in the current phase (no suspension, matching HPX's fast
// path). This is the task-side blocking-wait replacement: the worker is
// never blocked, and the suspension shows up in the phase counters.
func Await[T any](c *taskrt.Context, f *Future[T], cont func(*taskrt.Context, T)) {
	if v, ok := f.TryGet(); ok {
		cont(c, v)
		return
	}
	r := c.SuspendInto(func(c2 *taskrt.Context) {
		v, _ := f.TryGet() // guaranteed ready: Resume fires on completion
		cont(c2, v)
	})
	f.OnReady(func(T) { r.Resume() })
}

// Result pairs a value with an error for computations that can fail;
// futures themselves are value-only (HPX futures carry exceptions — in Go
// the idiomatic equivalent is an explicit error in the payload).
type Result[T any] struct {
	Value T
	Err   error
}

// AsyncErr spawns a fallible computation and returns the future of its
// Result.
func AsyncErr[T any](rt *taskrt.Runtime, fn func() (T, error), opts ...taskrt.SpawnOption) *Future[Result[T]] {
	return Async(rt, func() Result[T] {
		v, err := fn()
		return Result[T]{Value: v, Err: err}
	}, opts...)
}

// ThenErr schedules fn on f's successful value; an upstream error
// short-circuits (fn is not run and the error propagates), mirroring
// promise-chain error semantics.
func ThenErr[T, U any](rt *taskrt.Runtime, f *Future[Result[T]], fn func(T) (U, error), opts ...taskrt.SpawnOption) *Future[Result[U]] {
	p, out := NewPromise[Result[U]]()
	f.OnReady(func(r Result[T]) {
		if r.Err != nil {
			p.Set(Result[U]{Err: r.Err})
			return
		}
		rt.Spawn(func(*taskrt.Context) {
			v, err := fn(r.Value)
			p.Set(Result[U]{Value: v, Err: err})
		}, opts...)
	})
	return out
}

// WaitErr blocks for a Result future and unpacks it.
func WaitErr[T any](f *Future[Result[T]]) (T, error) {
	r := f.Wait()
	return r.Value, r.Err
}

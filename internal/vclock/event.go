package vclock

import (
	"context"
	"sync"
	"time"
)

// Event is a one-shot broadcast ("happened / not yet"). Construct through
// Clock.NewEvent so the event knows which world it lives in: under a
// Virtual clock, Fire moves every registered waiter onto the scheduler's
// run queue in the order they began waiting, so wake-ups are granted
// deterministically and the scheduler can never advance time through the
// handoff. Under the Real clock it degenerates to a closed channel. Fire
// is idempotent; Wait after Fire returns immediately.
type Event struct {
	v       *Virtual   // non-nil under a Virtual clock
	mu      sync.Mutex // guards fired under the Real clock (Virtual uses the scheduler lock)
	ch      chan struct{}
	fired   bool
	waiters []*grant // Virtual: parked waiters in arrival order
}

// Fire releases all current and future waiters. Safe to call from any
// goroutine, any number of times.
func (e *Event) Fire() {
	if v := e.v; v != nil {
		v.mu.Lock()
		if !e.fired {
			e.fired = true
			close(e.ch)
			for _, g := range e.waiters {
				v.wakeLocked(g, causeEvent)
			}
			e.waiters = nil
		}
		v.mu.Unlock()
		return
	}
	e.mu.Lock()
	if !e.fired {
		e.fired = true
		close(e.ch)
	}
	e.mu.Unlock()
}

// Done exposes the raw channel closed by Fire, for select-based waits in
// real-clock code (an HTTP handler racing a request context). A bare
// receive does not participate in run-queue accounting, so tracked
// goroutines under a virtual clock must use Wait/WaitTimeout/WaitCtx
// instead.
func (e *Event) Done() <-chan struct{} { return e.ch }

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool {
	if v := e.v; v != nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		return e.fired
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// Wait blocks until the event fires. Under a virtual clock the caller's
// execution slot is released while blocked and regained in run-queue order
// after Fire.
func (e *Event) Wait() {
	v := e.v
	if v == nil {
		<-e.ch
		return
	}
	v.mu.Lock()
	if e.fired || v.stopped {
		v.mu.Unlock()
		return
	}
	g := &grant{ch: make(chan struct{})}
	e.waiters = append(e.waiters, g)
	v.parkLocked(g)
}

// WaitTimeout blocks until the event fires or d elapses, reporting whether
// the event fired.
func (e *Event) WaitTimeout(d time.Duration) bool {
	v := e.v
	if v == nil {
		e.mu.Lock()
		fired := e.fired
		e.mu.Unlock()
		if fired {
			return true
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-e.ch:
			return true
		case <-t.C:
			return false
		}
	}
	v.mu.Lock()
	if e.fired {
		v.mu.Unlock()
		return true
	}
	if v.stopped {
		v.mu.Unlock()
		return false
	}
	g := &grant{ch: make(chan struct{})}
	t := v.newTimerLocked(d)
	t.g = g
	g.timer = t
	e.waiters = append(e.waiters, g)
	v.parkLocked(g)
	return g.cause == causeEvent
}

// WaitCtx blocks until the event fires or ctx is done. Returns nil when
// the event fired.
func (e *Event) WaitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		e.Wait()
		return nil
	}
	v := e.v
	if v == nil {
		select {
		case <-e.ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	v.mu.Lock()
	if e.fired || v.stopped {
		v.mu.Unlock()
		return nil
	}
	g := &grant{ch: make(chan struct{})}
	e.waiters = append(e.waiters, g)
	v.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		v.mu.Lock()
		v.wakeLocked(g, causeCtx)
		v.mu.Unlock()
	})
	v.mu.Lock()
	v.parkLocked(g)
	stop()
	if g.cause == causeCtx {
		return ctx.Err()
	}
	return nil
}

// Group is a sync.WaitGroup replacement whose Wait participates in the
// clock's run-queue accounting, so a goroutine joining its workers does not
// pin virtual time while blocked.
type Group struct {
	clk Clock
	mu  sync.Mutex
	n   int
	ev  *Event // non-nil while a waiter is parked; recreated per wait round
}

// NewGroup returns a Group bound to clk.
func NewGroup(clk Clock) *Group { return &Group{clk: Default(clk)} }

// Add increments the worker count by n (call before spawning, like
// sync.WaitGroup).
func (g *Group) Add(n int) {
	g.mu.Lock()
	g.n += n
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	g.mu.Unlock()
}

// Done marks one worker finished, waking waiters when the count hits zero.
func (g *Group) Done() {
	g.mu.Lock()
	g.n--
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	var ev *Event
	if g.n == 0 && g.ev != nil {
		ev = g.ev
		g.ev = nil
	}
	g.mu.Unlock()
	if ev != nil {
		ev.Fire()
	}
}

// Go runs f as one tracked worker on the Group's clock: Add(1), spawn via
// the clock, Done on return.
func (g *Group) Go(f func()) { g.GoOn(g.clk, f) }

// GoOn is Go with the worker spawned through clk, which must be the
// Group's clock or share its scheduler.
func (g *Group) GoOn(clk Clock, f func()) {
	g.Add(1)
	Default(clk).Go(func() {
		defer g.Done()
		f()
	})
}

// N reports the current worker count: workers spawned and not yet
// finished. Open-loop drivers use it as their deterministic in-flight
// gauge.
func (g *Group) N() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Wait blocks until the worker count reaches zero.
func (g *Group) Wait() {
	for {
		g.mu.Lock()
		if g.n == 0 {
			g.mu.Unlock()
			return
		}
		if g.ev == nil {
			g.ev = g.clk.NewEvent()
		}
		ev := g.ev
		g.mu.Unlock()
		ev.Wait()
	}
}

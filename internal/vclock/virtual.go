package vclock

import (
	"context"
	"sync"
	"time"
)

// epoch is the fixed origin of every Virtual clock. A constant origin (and
// never the host's wall clock) is what makes timestamps recorded during a
// run — WAL entries, outcome brackets, decay horizons — identical across
// same-seed runs on any machine.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Wake causes for a parked grant, recorded before the grant is readied so
// the woken goroutine can tell why it resumed.
const (
	causeNone = iota
	causeTimer
	causeEvent
	causeCtx
	causeShutdown
)

// grant is one execution slot in the scheduler's run queue. Either a parked
// goroutine waits on ch for the slot to be granted, or fn is a scheduler
// callback (AfterFunc) executed inline when the slot comes up.
type grant struct {
	ch    chan struct{} // closed when granted (nil for fn grants)
	fn    func()        // AfterFunc body (nil for parked goroutines)
	timer *vtimer       // companion timeout timer, descheduled on other wakes
	cause int           // why a parked grant was woken; causeNone = still parked
}

// Virtual is a deterministic discrete-event scheduler implementing Clock.
//
// Execution is fully serialized: at most one tracked goroutine runs at any
// moment, and the scheduler hands the single execution slot to waiters in
// strict FIFO order of when they became runnable. Because every wake-up is
// itself produced by serialized execution (a timer fire, an event, a spawn),
// the FIFO order — and therefore the entire run — is a pure function of the
// initial state. Virtual time advances only when the run queue is empty and
// nothing is running: the clock jumps straight to the earliest pending
// deadline, so a run spends zero wall time asleep.
//
// Construct with NewVirtual; the constructing goroutine holds the execution
// slot and must block only through clock primitives (Sleep, Event waits,
// Group.Wait). Timer callbacks and enqueued Ticket work run one at a time
// and must not block through the clock either — they may freely create
// timers, fire events, spawn via Go, and create Tickets.
type Virtual struct {
	mu      sync.Mutex
	cond    *sync.Cond // wakes the scheduler: slot freed, work queued, shutdown
	now     time.Duration
	running int // granted execution slots (1 in steady state; AddWork pins add)
	ready   []*grant
	timers  wheel[*vtimer]
	seq     uint64
	stopped bool
}

// NewVirtual returns a running virtual clock whose time starts at a fixed
// epoch. The caller holds the execution slot.
func NewVirtual() *Virtual {
	v := &Virtual{running: 1}
	v.cond = sync.NewCond(&v.mu)
	go v.run()
	return v
}

// Shutdown stops the scheduler goroutine, discards pending AfterFunc
// callbacks, and wakes every parked goroutine (their Sleep returns early,
// WaitTimeout reports false). Call once the virtual world is drained.
func (v *Virtual) Shutdown() {
	v.mu.Lock()
	v.stopped = true
	v.cond.Signal()
	v.mu.Unlock()
}

// run is the scheduler loop: grant the run queue head when the slot is
// free, and when both the slot and the queue are empty, jump time to the
// earliest deadline and fire that timer.
func (v *Virtual) run() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		if v.stopped {
			v.drainLocked()
			return
		}
		if v.running > 0 {
			v.cond.Wait()
			continue
		}
		if len(v.ready) > 0 {
			g := v.ready[0]
			v.ready = v.ready[1:]
			v.running++
			if g.fn != nil {
				fn := g.fn
				v.mu.Unlock()
				fn()
				v.mu.Lock()
				v.running--
			} else {
				close(g.ch)
			}
			continue
		}
		if t, ok := v.timers.popMin(); ok {
			if t.when > v.now {
				v.now = t.when
			}
			t.fireLocked()
			continue
		}
		v.cond.Wait()
	}
}

// drainLocked wakes everything at shutdown. Caller holds v.mu.
func (v *Virtual) drainLocked() {
	for _, g := range v.ready {
		if g.ch != nil {
			close(g.ch)
		}
	}
	v.ready = nil
	v.timers.forEach(func(t *vtimer) {
		if t.g != nil && t.g.cause == causeNone {
			t.g.cause = causeShutdown
			close(t.g.ch)
		}
	})
	v.timers.reset()
}

// readyLocked appends g to the run queue. Caller holds v.mu.
func (v *Virtual) readyLocked(g *grant) {
	v.ready = append(v.ready, g)
	v.cond.Signal()
}

// parkLocked releases the caller's execution slot and blocks until g is
// granted. Caller holds v.mu and owns the slot; returns without the lock.
func (v *Virtual) parkLocked(g *grant) {
	v.running--
	if v.running < 0 {
		panic("vclock: park without an execution slot (untracked goroutine blocked through the clock)")
	}
	v.cond.Signal()
	v.mu.Unlock()
	<-g.ch
}

// exitLocked gives the execution slot back without a wake-up to wait for
// (goroutine end, ticket completion). Caller holds v.mu.
func (v *Virtual) exitLocked() {
	v.running--
	if v.running < 0 {
		panic("vclock: unbalanced execution-slot release")
	}
	v.cond.Signal()
}

// newTimerLocked registers a timer firing at now+d. Caller holds v.mu.
func (v *Virtual) newTimerLocked(d time.Duration) *vtimer {
	if d < 0 {
		d = 0
	}
	t := &vtimer{v: v, when: v.now + d, seq: v.seq}
	v.seq++
	v.timers.schedule(t.when, t.seq, t)
	v.cond.Signal()
	return t
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return epoch.Add(v.now)
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until implements Clock.
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Sleep implements Clock: the caller's slot is released for the duration,
// so the scheduler may advance straight to the wake-up (or any earlier
// work) with zero wall-clock cost. Sleep(0) yields: the caller goes to the
// back of the run queue.
func (v *Virtual) Sleep(d time.Duration) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return
	}
	g := &grant{ch: make(chan struct{})}
	if d <= 0 {
		v.readyLocked(g)
	} else {
		t := v.newTimerLocked(d)
		t.g = g
	}
	v.parkLocked(g)
}

// SleepCtx implements Clock.
func (v *Virtual) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		v.Sleep(d)
		return nil
	}
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return ctx.Err()
	}
	g := &grant{ch: make(chan struct{})}
	if d <= 0 {
		v.readyLocked(g)
	} else {
		t := v.newTimerLocked(d)
		t.g = g
		g.timer = t
	}
	v.mu.Unlock()
	// Cancellation comes from outside the virtual world; the watcher
	// deschedules the timer and readies the sleeper with a ctx wake.
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

// wakeLocked readies a parked grant with the given cause, descheduling its
// companion timer. A no-op when the grant was already woken. Caller holds
// v.mu.
func (v *Virtual) wakeLocked(g *grant, cause int) {
	if g.cause != causeNone {
		return
	}
	g.cause = cause
	if g.timer != nil {
		v.timers.cancel(g.timer)
	}
	v.readyLocked(g)
}

// AfterFunc implements Clock. f runs on the scheduler goroutine, in run-
// queue order, at the virtual deadline; it must not block through the
// clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		go f()
		return &vtimer{v: v, fired: true}
	}
	t := v.newTimerLocked(d)
	t.fn = f
	v.mu.Unlock()
	return t
}

// NewTimer implements Clock. The returned timer delivers the fire into a
// buffered channel with no run-queue participation, so a tracked goroutine
// must not bare-receive from C (it would hold the execution slot and wedge
// the world); C is for select loops in real-clock-domain code that happen
// to hold a virtual clock. Tracked code should use Sleep or Events.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	if v.stopped {
		t := &vtimer{v: v, fired: true, ch: make(chan time.Time, 1)}
		t.ch <- epoch.Add(v.now)
		v.mu.Unlock()
		return t
	}
	t := v.newTimerLocked(d)
	t.ch = make(chan time.Time, 1)
	v.mu.Unlock()
	return t
}

// NewEvent implements Clock.
func (v *Virtual) NewEvent() *Event {
	return &Event{v: v, ch: make(chan struct{})}
}

// Go implements Clock: the new goroutine occupies a run-queue slot from the
// moment of the call, so the spawn is ordered deterministically and the
// scheduler cannot advance time past it.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		go f()
		return
	}
	g := &grant{ch: make(chan struct{})}
	v.readyLocked(g)
	v.mu.Unlock()
	go func() {
		<-g.ch
		f()
		v.mu.Lock()
		v.exitLocked()
		v.mu.Unlock()
	}()
}

// Ticket implements Clock: the slot is queued now (establishing its
// deterministic position), granted when the scheduler reaches it, and
// occupied for the duration of Run's callback.
func (v *Virtual) Ticket() Ticket {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		return realTicket{}
	}
	g := &grant{ch: make(chan struct{})}
	v.readyLocked(g)
	v.mu.Unlock()
	return &vticket{v: v, g: g}
}

// vticket is a Virtual execution slot reserved by Ticket.
type vticket struct {
	v *Virtual
	g *grant
}

// Run implements Ticket.
func (t *vticket) Run(f func()) {
	<-t.g.ch
	f()
	t.v.mu.Lock()
	t.v.exitLocked()
	t.v.mu.Unlock()
}

// AddWork implements Clock: the n units occupy the execution slot jointly
// with the caller, pinning the world (no grants, no time advance) until
// each is balanced by WorkDone. For untracked goroutines poking a virtual
// world from outside (tests, real-clock bridges).
func (v *Virtual) AddWork(n int) {
	if n <= 0 {
		return
	}
	v.mu.Lock()
	v.running += n
	v.mu.Unlock()
}

// WorkDone implements Clock.
func (v *Virtual) WorkDone() {
	v.mu.Lock()
	v.exitLocked()
	v.mu.Unlock()
}

// Running reports the granted-slot count (tests, debugging).
func (v *Virtual) Running() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.running
}

// PendingTimers reports how many timers are scheduled (tests, debugging).
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.timers.live
}

// vtimer is one scheduled deadline in the virtual timer wheel.
type vtimer struct {
	v     *Virtual
	when  time.Duration  // virtual deadline (offset from epoch)
	seq   uint64         // insertion order breaks deadline ties
	fn    func()         // AfterFunc callback
	ch    chan time.Time // NewTimer channel
	g     *grant         // parked sleeper / waiter to ready on fire
	fired bool
	node  wheelNode
}

// wheelState exposes the wheel bookkeeping node.
func (t *vtimer) wheelState() *wheelNode { return &t.node }

// fireLocked delivers the timer. Caller holds v.mu; the timer was just
// popped from the wheel.
func (t *vtimer) fireLocked() {
	t.fired = true
	switch {
	case t.g != nil:
		t.v.wakeLocked(t.g, causeTimer)
	case t.fn != nil:
		t.v.readyLocked(&grant{fn: t.fn})
	case t.ch != nil:
		select {
		case t.ch <- epoch.Add(t.when):
		default: // unconsumed previous fire; drop
		}
	}
}

// C implements Timer.
func (t *vtimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	return t.stopLocked()
}

// stopLocked is Stop under v.mu.
func (t *vtimer) stopLocked() bool {
	if t.v.timers.cancel(t) {
		return true
	}
	if t.ch != nil {
		select {
		case <-t.ch: // drain an unconsumed fire
		default:
		}
	}
	return false
}

// Reset implements Timer.
func (t *vtimer) Reset(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return false
	}
	wasPending := t.stopLocked()
	t.fired = false
	t.when = v.now + d
	t.seq = v.seq
	v.seq++
	v.timers.schedule(t.when, t.seq, t)
	v.cond.Signal()
	return wasPending
}

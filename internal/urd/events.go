package urd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
)

// EventHub fans task lifecycle transitions and throttled progress
// updates out to subscribers. Each subscriber owns a bounded queue
// drained by its own pump goroutine, which writes push frames over the
// subscriber's connection; publishing never blocks, so a slow or stuck
// consumer costs itself coalesced events (an EvGap marker) but can
// never stall a transfer worker or another subscriber.
//
// Two delivery guarantees shape the queue policy:
//
//   - Terminal transitions of explicitly subscribed tasks are never
//     dropped: the overflow check admits them past the cap, growing the
//     queue by at most the size of the subscription's task set. A
//     handle-holding client therefore always learns its tasks' fates.
//   - Everything else (progress ticks, transitions on all-tasks
//     subscriptions) is coalesced under pressure: each drain of the
//     queue ends with one EvGap event carrying the count dropped since
//     the previous drain, so gaps arrive in order and their Dropped
//     counts sum to the events dropped.
type EventHub struct {
	queueCap int
	// progressMin is the hub-wide floor between progress ticks per
	// task, whatever rate subscribers request. It bounds the cost of
	// the per-chunk OnProgress hook on the transfer hot path.
	progressMin time.Duration

	// subCount mirrors len(subs) so the publish hot path can skip the
	// lock entirely while nobody is subscribed.
	subCount atomic.Int32

	mu     sync.Mutex
	subs   map[uint64]*eventSub
	nextID uint64
	// byTask / byTaskMore index explicit subscriptions by task ID and
	// allSubs holds the all-tasks subscriptions, so a publish touches
	// exactly the subscribers that want the event. Before the index,
	// every publish walked every live subscription under mu — with
	// hundreds of batch-submitting clients (one explicit subscription
	// each), each of the daemon's state events per task scanned them
	// all, which serialized the worker pool on the hub lock. The index
	// is split single/overflow because a task almost always has exactly
	// one explicit subscriber: a direct map entry costs no allocation
	// where a one-element slice cost one per task.
	byTask     map[uint64]*eventSub
	byTaskMore map[uint64][]*eventSub
	allSubs    map[uint64]*eventSub
	// lastState dedups state events per task: racing publishers (a
	// cancel and the executing worker both reach terminal bookkeeping)
	// must not deliver the same transition twice. Entries live as long
	// as the daemon's task table, which has the same lifetime.
	lastState map[uint64]task.Status
	closed    bool

	// lastTick throttles progress events per task at the hub floor. It
	// is a sync.Map (task ID -> time.Time) so the per-chunk hot path
	// can reject a too-soon tick without touching the hub mutex —
	// workers only contend on mu for the ticks that actually fan out.
	lastTick sync.Map
}

// defaults for Config.EventQueue and Config.ProgressInterval.
const (
	defaultEventQueue       = 256
	defaultProgressInterval = 100 * time.Millisecond
)

// NewEventHub returns a hub with the given per-subscriber queue bound
// and hub-wide progress-tick floor (<=0 selects the defaults).
func NewEventHub(queueCap int, progressMin time.Duration) *EventHub {
	if queueCap <= 0 {
		queueCap = defaultEventQueue
	}
	if progressMin <= 0 {
		progressMin = defaultProgressInterval
	}
	return &EventHub{
		queueCap:    queueCap,
		progressMin: progressMin,
		subs:        make(map[uint64]*eventSub),
		byTask:      make(map[uint64]*eventSub),
		byTaskMore:  make(map[uint64][]*eventSub),
		allSubs:     make(map[uint64]*eventSub),
		lastState:   make(map[uint64]task.Status),
	}
}

// eventSub is one subscription: its filter, its bounded queue, and the
// plumbing its pump goroutine drains through.
type eventSub struct {
	id  uint64
	all bool
	// terminalOnly subscriptions receive progress ticks and terminal
	// transitions only — the pending/running chatter a task handle
	// never acts on is filtered at the source, before it costs a queue
	// slot or a push frame.
	terminalOnly bool
	tasks        map[uint64]struct{} // explicit set; emptied as tasks terminate
	progress     time.Duration       // 0 = no progress ticks
	lastTick     map[uint64]time.Time

	mu      sync.Mutex
	queue   []proto.Event
	spare   []proto.Event // drained buffer handed back by the pump
	dropped uint64
	notify  chan struct{} // cap 1: queue became non-empty
	done    chan struct{} // closed on unsubscribe/hub close
	closed  bool
}

// offer appends an event to the subscriber's queue without ever
// blocking. force admits the event past the cap (terminal transitions
// of explicitly subscribed tasks); otherwise overflow is counted and
// surfaces in the EvGap event that ends the next drain.
func (s *eventSub) offer(ev proto.Event, limit int, force bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if len(s.queue) >= limit && !force {
		s.dropped++
		s.mu.Unlock()
		return
	}
	if s.queue == nil && s.spare != nil {
		// Reuse the buffer the pump drained rather than growing a fresh
		// one per drain cycle.
		s.queue, s.spare = s.spare[:0], nil
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// take hands the pump everything queued plus the pending gap count.
func (s *eventSub) take() ([]proto.Event, uint64) {
	s.mu.Lock()
	evs := s.queue
	s.queue = nil
	dropped := s.dropped
	s.dropped = 0
	s.mu.Unlock()
	return evs, dropped
}

// giveBack returns a drained buffer for reuse once the pump has pushed
// (and therefore encoded) every event in it.
func (s *eventSub) giveBack(evs []proto.Event) {
	const maxSpare = 4096
	if cap(evs) > maxSpare {
		return
	}
	s.mu.Lock()
	if s.spare == nil {
		s.spare = evs[:0]
	}
	s.mu.Unlock()
}

// Pusher delivers event frames to one subscriber's connection. Push
// writes a single frame; PushBatch, when non-nil, writes a burst of
// frames with one gathered write — the pump prefers it so a drained
// queue of N events costs one syscall, not N.
type Pusher struct {
	Push      func(*proto.Response) error
	PushBatch func([]*proto.Response) error
}

// ErrHubClosed is returned for subscriptions on a closing daemon.
var ErrHubClosed = errors.New("urd: event hub closed")

// errNoSuchSub is mapped to ENotFound by the protocol layer.
var errNoSuchSub = errors.New("no such subscription")

// Subscribe registers a subscriber and starts its pump. snapshot
// resolves a task's current stats (explicit subscriptions get an
// immediate EvState snapshot per task, so subscribing after submission
// cannot miss a task that raced to a terminal state); it runs under
// the hub lock, so it must not call back into the hub — in particular
// it must not reach a Publish path. push writes one frame to the
// subscriber's connection; pushClosed signals connection teardown. The pump exits — and the subscription is removed — when the
// connection closes, push fails, the subscriber is unsubscribed, or an
// explicit task set has fully terminated.
func (h *EventHub) Subscribe(
	spec *proto.SubscribeSpec,
	snapshot func(id uint64) (task.Stats, error),
	push Pusher,
	pushClosed <-chan struct{},
) (uint64, error) {
	if !spec.All && len(spec.TaskIDs) == 0 {
		return 0, fmt.Errorf("%w: subscription needs task IDs or all", errBadRequest)
	}
	sub := &eventSub{
		all:          spec.All,
		terminalOnly: spec.TerminalOnly,
		notify:       make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	if spec.ProgressMS > 0 {
		sub.progress = time.Duration(spec.ProgressMS) * time.Millisecond
		if sub.progress < h.progressMin {
			sub.progress = h.progressMin
		}
		sub.lastTick = make(map[uint64]time.Time)
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, ErrHubClosed
	}
	h.nextID++
	sub.id = h.nextID
	// Register — and make subCount visible — BEFORE taking the
	// snapshots. Registration and the snapshots are atomic under the
	// hub lock, so a concurrent publisher either blocks on mu and
	// delivers to the queue behind the snapshot, or took the
	// subCount==0 fast path — and the atomics' total order then
	// guarantees its transition happened before our Store, hence
	// before the snapshot read, which therefore already reflects it.
	// Either way no transition is lost in the subscribe window.
	h.subs[sub.id] = sub
	h.subCount.Store(int32(len(h.subs)))
	if spec.All {
		h.allSubs[sub.id] = sub
	} else {
		sub.tasks = make(map[uint64]struct{}, len(spec.TaskIDs))
		for _, id := range spec.TaskIDs {
			st, err := snapshot(id)
			if err != nil {
				delete(h.subs, sub.id)
				h.subCount.Store(int32(len(h.subs)))
				h.unindexLocked(sub)
				h.mu.Unlock()
				return 0, err
			}
			// A terminal-only subscriber skips non-terminal snapshots:
			// interest is still registered, and the task's one terminal
			// event will arrive when it happens.
			if !sub.terminalOnly || st.Status.Terminal() {
				sub.offer(proto.Event{
					SubID: sub.id, Kind: uint32(proto.EvState), TaskID: id,
					Stats: proto.FromStats(st), HasStats: true,
				}, h.queueCap, true)
			}
			if !st.Status.Terminal() {
				if _, dup := sub.tasks[id]; !dup {
					sub.tasks[id] = struct{}{}
					h.indexTaskLocked(id, sub)
				}
			}
		}
	}
	// An explicit set whose every task already terminated still gets
	// its snapshots delivered: the pump drains the queue, then exits.
	exhausted := !sub.all && len(sub.tasks) == 0
	h.mu.Unlock()
	if exhausted {
		h.remove(sub.id)
	}

	go h.pump(sub, push, pushClosed)
	// SubID stamps every event so one connection can demultiplex
	// several subscriptions.
	return sub.id, nil
}

// SubscribeSubmitted registers an explicit subscription over tasks
// that are registered but NOT YET runnable — the combined
// submit+subscribe path. Because no task in ids can have transitioned
// yet, there is nothing to snapshot: interest is recorded and the
// first event any of these tasks ever produces is delivered. This is
// what lets one OpSubmitBatch RPC replace the old submit-then-
// subscribe pair without a lost-event window. spec contributes the
// delivery options (progress rate, terminal-only); its task list is
// ignored in favor of ids.
func (h *EventHub) SubscribeSubmitted(
	spec *proto.SubscribeSpec,
	ids []uint64,
	push Pusher,
	pushClosed <-chan struct{},
) (uint64, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("%w: subscription needs task IDs", errBadRequest)
	}
	sub := &eventSub{
		terminalOnly: spec.TerminalOnly,
		notify:       make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	if spec.ProgressMS > 0 {
		sub.progress = time.Duration(spec.ProgressMS) * time.Millisecond
		if sub.progress < h.progressMin {
			sub.progress = h.progressMin
		}
		sub.lastTick = make(map[uint64]time.Time)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, ErrHubClosed
	}
	h.nextID++
	sub.id = h.nextID
	h.subs[sub.id] = sub
	h.subCount.Store(int32(len(h.subs)))
	sub.tasks = make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := sub.tasks[id]; !dup {
			sub.tasks[id] = struct{}{}
			h.indexTaskLocked(id, sub)
		}
	}
	h.mu.Unlock()
	go h.pump(sub, push, pushClosed)
	return sub.id, nil
}

// Unsubscribe removes a subscription. The pump drains what is already
// queued, then exits.
func (h *EventHub) Unsubscribe(id uint64) error {
	h.mu.Lock()
	_, ok := h.subs[id]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w %d", errNoSuchSub, id)
	}
	h.remove(id)
	return nil
}

// unindexLocked removes sub from the publish indexes (byTask for its
// remaining explicit tasks, allSubs otherwise). Caller holds h.mu.
func (h *EventHub) unindexLocked(sub *eventSub) {
	if sub.all {
		delete(h.allSubs, sub.id)
		return
	}
	for id := range sub.tasks {
		h.unindexTaskLocked(id, sub)
	}
}

// indexTaskLocked records sub's interest in id. Caller holds h.mu.
func (h *EventHub) indexTaskLocked(id uint64, sub *eventSub) {
	if cur, ok := h.byTask[id]; !ok {
		h.byTask[id] = sub
	} else if cur != sub {
		h.byTaskMore[id] = append(h.byTaskMore[id], sub)
	}
}

// unindexTaskLocked removes sub's interest in id, promoting an
// overflow subscriber into the single slot if one exists. Caller holds
// h.mu.
func (h *EventHub) unindexTaskLocked(id uint64, sub *eventSub) {
	if h.byTask[id] == sub {
		more := h.byTaskMore[id]
		if n := len(more); n > 0 {
			h.byTask[id] = more[n-1]
			if n == 1 {
				delete(h.byTaskMore, id)
			} else {
				h.byTaskMore[id] = more[:n-1]
			}
		} else {
			delete(h.byTask, id)
		}
		return
	}
	more := h.byTaskMore[id]
	for i, s := range more {
		if s == sub {
			more[i] = more[len(more)-1]
			if len(more) == 1 {
				delete(h.byTaskMore, id)
			} else {
				h.byTaskMore[id] = more[:len(more)-1]
			}
			return
		}
	}
}

// remove drops a subscription and signals its pump (idempotent).
func (h *EventHub) remove(id uint64) {
	h.mu.Lock()
	sub, ok := h.subs[id]
	if ok {
		delete(h.subs, id)
		h.unindexLocked(sub)
	}
	h.subCount.Store(int32(len(h.subs)))
	h.mu.Unlock()
	if ok {
		sub.mu.Lock()
		closed := sub.closed
		sub.closed = true
		sub.mu.Unlock()
		if !closed {
			close(sub.done)
		}
	}
}

// Close removes every subscription. Pumps drain their queues and exit;
// publishing afterwards is a no-op.
func (h *EventHub) Close() {
	h.mu.Lock()
	h.closed = true
	ids := make([]uint64, 0, len(h.subs))
	for id := range h.subs {
		ids = append(ids, id)
	}
	h.mu.Unlock()
	for _, id := range ids {
		h.remove(id)
	}
}

// Subscribers reports the live subscription count (diagnostics/tests).
func (h *EventHub) Subscribers() int { return int(h.subCount.Load()) }

// ForgetTask drops a retired task's dedup and throttle state. The
// daemon calls it when the task leaves the in-memory table, so the
// hub's per-task maps stay bounded by the same retention policy.
func (h *EventHub) ForgetTask(id uint64) {
	h.lastTick.Delete(id)
	h.mu.Lock()
	delete(h.lastState, id)
	delete(h.byTask, id)
	delete(h.byTaskMore, id)
	h.mu.Unlock()
}

// PublishState fans a task state transition out to matching
// subscribers. Duplicate publishes of the same state (racing cancel and
// worker paths) are suppressed. Never blocks.
func (h *EventHub) PublishState(id uint64, st task.Stats) {
	if st.Status.Terminal() {
		// The task will never tick again: drop its throttle state
		// unconditionally — the subCount fast path below must not skip
		// this, or churning watchers leak one entry per finished task.
		h.lastTick.Delete(id)
	}
	if h.subCount.Load() == 0 {
		// Still record the state for dedup? No subscriber has seen
		// anything, so there is nothing to dedup against; skipping the
		// map write keeps the no-subscriber path allocation-free.
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	// Dedup, with sticky terminals: a racing publisher holding a stale
	// pre-terminal snapshot (Cancel's Cancelling vs the worker's
	// Cancelled) must not resurrect a task after its terminal event.
	if prev := h.lastState[id]; prev == st.Status || prev.Terminal() {
		h.mu.Unlock()
		return
	}
	h.lastState[id] = st.Status
	terminal := st.Status.Terminal()
	// The indexes hand us exactly the interested subscribers: the
	// explicit subscriptions holding this task plus the all-tasks ones.
	// Built lazily on the first matching subscriber, like
	// PublishProgress: most transitions fan out to nobody when only
	// unrelated explicit subscriptions are live.
	var ps proto.TaskStats
	built := false
	var exhausted []uint64
	deliver := func(sub *eventSub, explicit bool) {
		if terminal {
			delete(sub.lastTick, id)
		}
		if sub.terminalOnly && !terminal {
			return
		}
		if !built {
			ps = proto.FromStats(st)
			built = true
		}
		// Terminal transitions of explicitly subscribed tasks bypass
		// the cap: the client is provably waiting on them, and the
		// overshoot is bounded by its own subscription size.
		sub.offer(proto.Event{
			SubID: sub.id, Kind: uint32(proto.EvState), TaskID: id, Stats: ps, HasStats: true,
		}, h.queueCap, explicit && terminal)
	}
	explicitDeliver := func(sub *eventSub) {
		deliver(sub, true)
		if terminal {
			delete(sub.tasks, id)
			if len(sub.tasks) == 0 {
				exhausted = append(exhausted, sub.id)
			}
		}
	}
	if sub, ok := h.byTask[id]; ok {
		explicitDeliver(sub)
		for _, s := range h.byTaskMore[id] {
			explicitDeliver(s)
		}
	}
	if terminal {
		// Every interested explicit subscription was just detached from
		// this task; drop its index entries wholesale.
		delete(h.byTask, id)
		delete(h.byTaskMore, id)
	}
	for _, sub := range h.allSubs {
		deliver(sub, false)
	}
	h.mu.Unlock()
	// An explicit subscription whose last task just terminated is spent:
	// reap it so long-lived connections submitting many batches do not
	// accumulate dead subscriptions.
	for _, sid := range exhausted {
		h.remove(sid)
	}
}

// PublishProgress fans a rate-limited progress tick for a running task
// out to subscribers that asked for progress. Called from the transfer
// hot path (once per copied chunk), so the no-subscriber fast path is a
// single atomic load and ticks are throttled per task at the hub floor
// before any snapshot is taken. Never blocks.
func (h *EventHub) PublishProgress(t *task.Task) {
	if h.subCount.Load() == 0 {
		return
	}
	now := time.Now()
	// Lock-free throttle rejection first: the overwhelming majority of
	// per-chunk calls end here without serializing the workers.
	if v, ok := h.lastTick.Load(t.ID); ok && now.Sub(v.(time.Time)) < h.progressMin {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	// Re-check under the lock so racing workers emit one tick, not one
	// each.
	if v, ok := h.lastTick.Load(t.ID); ok && now.Sub(v.(time.Time)) < h.progressMin {
		h.mu.Unlock()
		return
	}
	h.lastTick.Store(t.ID, now)
	var ps proto.TaskStats
	built := false
	tick := func(sub *eventSub) {
		if sub.progress == 0 {
			return
		}
		if now.Sub(sub.lastTick[t.ID]) < sub.progress {
			return
		}
		sub.lastTick[t.ID] = now
		if !built {
			ps = proto.FromStats(t.Stats())
			built = true
		}
		sub.offer(proto.Event{
			SubID: sub.id, Kind: uint32(proto.EvProgress), TaskID: t.ID, Stats: ps, HasStats: true,
		}, h.queueCap, false)
	}
	if sub, ok := h.byTask[t.ID]; ok {
		tick(sub)
		for _, s := range h.byTaskMore[t.ID] {
			tick(s)
		}
	}
	for _, sub := range h.allSubs {
		tick(sub)
	}
	h.mu.Unlock()
}

// pump drains one subscriber's queue onto its connection. It is the
// only goroutine that writes this subscription's frames, so queue order
// is delivery order, with one EvGap appended whenever overflow was
// coalesced since the last drain. A drain of N events goes out as one
// gathered write when the connection supports it — under burst load
// (a batch subscription's snapshot, a worker pool completing tasks)
// that divides the push-path syscalls by the drain size.
func (h *EventHub) pump(sub *eventSub, push Pusher, pushClosed <-chan struct{}) {
	// Per-pump scratch, grown once and reused every drain: the batch
	// push consumes (encodes) the frames before returning, so nothing
	// outlives the call.
	var vals []proto.Response
	var resps []*proto.Response
	flush := func() bool {
		evs, dropped := sub.take()
		if dropped > 0 {
			evs = append(evs, proto.Event{
				SubID: sub.id, Kind: uint32(proto.EvGap), Dropped: dropped,
			})
		}
		if len(evs) == 0 {
			return true
		}
		if push.PushBatch != nil {
			vals = vals[:0]
			resps = resps[:0]
			for i := range evs {
				vals = append(vals, proto.Response{Status: proto.Success, Event: evs[i], HasEvent: true})
			}
			for i := range vals {
				resps = append(resps, &vals[i])
			}
			ok := push.PushBatch(resps) == nil
			sub.giveBack(evs)
			return ok
		}
		for i := range evs {
			if err := push.Push(&proto.Response{Status: proto.Success, Event: evs[i], HasEvent: true}); err != nil {
				return false
			}
		}
		sub.giveBack(evs)
		return true
	}
	for {
		select {
		case <-sub.notify:
			if !flush() {
				h.remove(sub.id)
				return
			}
		case <-sub.done:
			// Unsubscribed (or spent, or hub closing): deliver what is
			// already queued, then stop. A failed push is moot here.
			flush()
			return
		case <-pushClosed:
			h.remove(sub.id)
			return
		}
	}
}

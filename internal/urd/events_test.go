package urd

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/proto"
	"github.com/ngioproject/norns-go/internal/task"
)

// collectingPush is a push sink whose delivery can be stalled, standing
// in for a subscriber connection with a full TCP window.
type collectingPush struct {
	mu      sync.Mutex
	events  []proto.Event
	gate    chan struct{} // nil = never blocks
	failing bool
}

func (p *collectingPush) push(resp *proto.Response) error {
	if p.gate != nil {
		<-p.gate
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failing {
		return errors.New("peer gone")
	}
	if resp.HasEvent {
		p.events = append(p.events, resp.Event)
	}
	return nil
}

func (p *collectingPush) snapshot() []proto.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]proto.Event(nil), p.events...)
}

func noSnapshot(id uint64) (task.Stats, error) {
	return task.Stats{Status: task.Pending}, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSlowSubscriberNeverBlocksAndGapFires is the hub's core contract:
// a subscriber whose connection is wedged costs publishers nothing,
// and once it drains it learns, through its in-order gap events, how
// much was coalesced away.
func TestSlowSubscriberNeverBlocksAndGapFires(t *testing.T) {
	h := NewEventHub(4, time.Millisecond)
	defer h.Close()
	p := &collectingPush{gate: make(chan struct{})}
	subID, err := h.Subscribe(&proto.SubscribeSpec{All: true}, noSnapshot, Pusher{Push: p.push}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Fatal("zero subscription ID")
	}

	// Publish far beyond the queue bound while the pump is stalled.
	// Every publish must return promptly — the worker-side guarantee.
	const n = 500
	start := time.Now()
	for i := uint64(1); i <= n; i++ {
		h.PublishState(i, task.Stats{Status: task.Pending})
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("publishing against a stalled subscriber took %v", d)
	}

	close(p.gate) // un-wedge the connection
	// The pump may drain more than once (on several cores it can take a
	// few events before the first push wedges on the gate), and each
	// drain carries its own gap for the overflow coalesced since the
	// previous one. Every publish is either delivered or counted in
	// exactly one gap, so the gaps' counts plus the deliveries must
	// account for all n publishes — no more, no fewer.
	var delivered, dropped uint64
	var gaps []proto.Event
	waitFor(t, "every publish delivered or counted in a gap", func() bool {
		delivered, dropped, gaps = 0, 0, gaps[:0]
		for _, ev := range p.snapshot() {
			if proto.EventKind(ev.Kind) == proto.EvGap {
				dropped += ev.Dropped
				gaps = append(gaps, ev)
			} else {
				delivered++
			}
		}
		return delivered+dropped >= n
	})
	if delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != published %d", delivered, dropped, n)
	}
	if dropped == 0 {
		t.Fatal("expected a non-zero drop count")
	}
	for _, gap := range gaps {
		if gap.SubID != subID {
			t.Fatalf("gap SubID = %d, want %d", gap.SubID, subID)
		}
	}
}

// TestExplicitTerminalEventsSurviveOverflow: terminal transitions of
// explicitly subscribed tasks bypass the queue bound, so a handle
// never misses its task's fate however slow its connection was.
func TestExplicitTerminalEventsSurviveOverflow(t *testing.T) {
	h := NewEventHub(2, time.Millisecond)
	defer h.Close()
	p := &collectingPush{gate: make(chan struct{})}
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := h.Subscribe(&proto.SubscribeSpec{TaskIDs: ids}, noSnapshot, Pusher{Push: p.push}, nil); err != nil {
		t.Fatal(err)
	}
	// Stalled pump, queue bound of 2, 8 terminal transitions: with the
	// force path every one of them must come out the other side.
	for _, id := range ids {
		h.PublishState(id, task.Stats{Status: task.Finished, MovedBytes: int64(id)})
	}
	close(p.gate)
	waitFor(t, "all terminal events", func() bool {
		seen := map[uint64]bool{}
		for _, ev := range p.snapshot() {
			if proto.EventKind(ev.Kind) == proto.EvState && ev.HasStats &&
				task.Status(ev.Stats.Status) == task.Finished {
				seen[ev.TaskID] = true
			}
		}
		return len(seen) == len(ids)
	})
	// The subscription is spent once every task terminated.
	waitFor(t, "auto-unsubscribe", func() bool { return h.Subscribers() == 0 })
}

// TestSubscribeSnapshotCoversRace: subscribing to a task that already
// terminated delivers its terminal state as the initial snapshot — the
// mechanism that closes the submit/subscribe window.
func TestSubscribeSnapshotCoversRace(t *testing.T) {
	h := NewEventHub(0, 0)
	defer h.Close()
	p := &collectingPush{}
	snapshot := func(id uint64) (task.Stats, error) {
		if id == 42 {
			return task.Stats{Status: task.Finished, MovedBytes: 7}, nil
		}
		return task.Stats{}, fmt.Errorf("%w: task %d", errNotFound, id)
	}
	subID, err := h.Subscribe(&proto.SubscribeSpec{TaskIDs: []uint64{42}}, snapshot, Pusher{Push: p.push}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot event", func() bool {
		evs := p.snapshot()
		return len(evs) == 1 && evs[0].TaskID == 42 && evs[0].SubID == subID &&
			task.Status(evs[0].Stats.Status) == task.Finished && evs[0].Stats.MovedBytes == 7
	})
	waitFor(t, "spent subscription reaped", func() bool { return h.Subscribers() == 0 })

	// Unknown tasks fail the subscribe outright.
	if _, err := h.Subscribe(&proto.SubscribeSpec{TaskIDs: []uint64{99}}, snapshot, Pusher{Push: p.push}, nil); !errors.Is(err, errNotFound) {
		t.Fatalf("Subscribe(unknown) = %v, want errNotFound", err)
	}
	// As does an empty filter.
	if _, err := h.Subscribe(&proto.SubscribeSpec{}, snapshot, Pusher{Push: p.push}, nil); !errors.Is(err, errBadRequest) {
		t.Fatalf("Subscribe(empty) = %v, want errBadRequest", err)
	}
}

// TestDuplicateTerminalPublishSuppressed: the cancel path and the
// worker path can both publish the same terminal state; subscribers
// must see it once.
func TestDuplicateTerminalPublishSuppressed(t *testing.T) {
	h := NewEventHub(0, 0)
	defer h.Close()
	p := &collectingPush{}
	if _, err := h.Subscribe(&proto.SubscribeSpec{All: true}, noSnapshot, Pusher{Push: p.push}, nil); err != nil {
		t.Fatal(err)
	}
	st := task.Stats{Status: task.Cancelled}
	h.PublishState(9, st)
	h.PublishState(9, st) // racing duplicate
	// A stale pre-terminal snapshot delivered late (Cancel's Cancelling
	// racing the worker's Cancelled) must not resurrect the task.
	h.PublishState(9, task.Stats{Status: task.Cancelling})
	h.PublishState(10, task.Stats{Status: task.Pending})
	waitFor(t, "events", func() bool { return len(p.snapshot()) >= 2 })
	time.Sleep(20 * time.Millisecond) // allow a wrong extra event to land
	count := 0
	for _, ev := range p.snapshot() {
		if ev.TaskID == 9 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("task 9 delivered %d times, want 1", count)
	}
}

// TestProgressThrottle: progress ticks are rate-limited per task at
// the hub floor, however often the transfer hot path fires.
func TestProgressThrottle(t *testing.T) {
	h := NewEventHub(1024, 50*time.Millisecond)
	defer h.Close()
	p := &collectingPush{}
	if _, err := h.Subscribe(&proto.SubscribeSpec{All: true, ProgressMS: 1}, noSnapshot, Pusher{Push: p.push}, nil); err != nil {
		t.Fatal(err)
	}
	tk := task.New(5, task.Copy, task.MemoryRegion([]byte("x")), task.PosixPath("m://", "f"))
	if err := tk.Start(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		h.PublishProgress(tk)
	}
	time.Sleep(20 * time.Millisecond)
	ticks := 0
	for _, ev := range p.snapshot() {
		if proto.EventKind(ev.Kind) == proto.EvProgress {
			ticks++
		}
	}
	if ticks > 2 {
		t.Fatalf("%d progress ticks through a 50ms floor in a tight loop", ticks)
	}
	if ticks == 0 {
		t.Fatal("no progress tick at all")
	}
}

// TestUnsubscribeStopsDelivery and failed pushes reap the subscription.
func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := NewEventHub(0, 0)
	defer h.Close()
	p := &collectingPush{}
	id, err := h.Subscribe(&proto.SubscribeSpec{All: true}, noSnapshot, Pusher{Push: p.push}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.PublishState(1, task.Stats{Status: task.Pending})
	waitFor(t, "first event", func() bool { return len(p.snapshot()) == 1 })
	if err := h.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(id); err == nil {
		t.Fatal("double unsubscribe succeeded")
	}
	waitFor(t, "reaped", func() bool { return h.Subscribers() == 0 })
	h.PublishState(2, task.Stats{Status: task.Pending})
	time.Sleep(20 * time.Millisecond)
	if n := len(p.snapshot()); n != 1 {
		t.Fatalf("%d events after unsubscribe, want 1", n)
	}

	// A push error reaps the subscription too.
	bad := &collectingPush{failing: true}
	if _, err := h.Subscribe(&proto.SubscribeSpec{All: true}, noSnapshot, Pusher{Push: bad.push}, nil); err != nil {
		t.Fatal(err)
	}
	h.PublishState(3, task.Stats{Status: task.Pending})
	waitFor(t, "failed-push reap", func() bool { return h.Subscribers() == 0 })
}

// TestPeerClosedReapsSubscription: connection teardown tears the
// subscription down with it.
func TestPeerClosedReapsSubscription(t *testing.T) {
	h := NewEventHub(0, 0)
	defer h.Close()
	p := &collectingPush{}
	closed := make(chan struct{})
	if _, err := h.Subscribe(&proto.SubscribeSpec{All: true}, noSnapshot, Pusher{Push: p.push}, closed); err != nil {
		t.Fatal(err)
	}
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d", h.Subscribers())
	}
	close(closed)
	waitFor(t, "peer-closed reap", func() bool { return h.Subscribers() == 0 })
}

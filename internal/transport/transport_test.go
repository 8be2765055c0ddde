package transport

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/proto"
)

// echoHandler responds with the request's TaskID and marks control
// connections.
func echoHandler(peer PeerInfo, req *proto.Request) *proto.Response {
	resp := &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	if peer.Control {
		resp.DaemonInfo = "control"
	}
	return resp
}

func startServer(t *testing.T, network string, control bool, h Handler) (srv *Server, addr string) {
	t.Helper()
	if h == nil {
		h = echoHandler
	}
	srv = NewServer(h, control)
	var bind string
	if network == "unix" {
		bind = filepath.Join(t.TempDir(), "urd.sock")
	} else {
		bind = "127.0.0.1:0"
	}
	a, err := srv.Listen(network, bind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, a.String()
}

func TestCallOverUnixAndTCP(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			_, addr := startServer(t, network, false, nil)
			c, err := Dial(network, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, err := c.Call(context.Background(), &proto.Request{Op: proto.OpPing, TaskID: 99})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != proto.Success || resp.TaskID != 99 {
				t.Fatalf("resp = %+v", resp)
			}
		})
	}
}

func TestControlFlagPropagates(t *testing.T) {
	_, userAddr := startServer(t, "unix", false, nil)
	_, ctlAddr := startServer(t, "unix", true, nil)

	uc, err := Dial("unix", userAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	cc, err := Dial("unix", ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ur, err := uc.Call(context.Background(), &proto.Request{Op: proto.OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if ur.DaemonInfo == "control" {
		t.Fatal("user socket reported as control")
	}
	cr, err := cc.Call(context.Background(), &proto.Request{Op: proto.OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if cr.DaemonInfo != "control" {
		t.Fatal("control socket not reported as control")
	}
}

func TestPipelining(t *testing.T) {
	// A slow first request must not block later pipelined responses.
	slow := func(peer PeerInfo, req *proto.Request) *proto.Response {
		if req.TaskID == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		return &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	}
	_, addr := startServer(t, "unix", false, slow)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ch1, err := c.Send(context.Background(), &proto.Request{TaskID: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := c.Send(context.Background(), &proto.Request{TaskID: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r2, err := c.Receive(context.Background(), ch2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TaskID != 2 {
		t.Fatalf("r2 = %+v", r2)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("fast response blocked behind slow one (%v)", d)
	}
	r1, err := c.Receive(context.Background(), ch1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TaskID != 1 {
		t.Fatalf("r1 = %+v", r1)
	}
}

func TestConcurrentCallers(t *testing.T) {
	_, addr := startServer(t, "unix", false, nil)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const goroutines, calls = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := uint64(g*calls + i + 1)
				resp, err := c.Call(context.Background(), &proto.Request{TaskID: id})
				if err != nil {
					errs <- err
					return
				}
				if resp.TaskID != id {
					errs <- fmt.Errorf("response mismatch: got %d want %d", resp.TaskID, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	block := make(chan struct{})
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		<-block
		return &proto.Response{}
	}
	srv, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := c.Send(context.Background(), &proto.Request{TaskID: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(block)
		srv.Close()
	}()
	// Either we get the response (handler finished first) or a closed-conn
	// error; both are acceptable, hanging is not.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Receive(context.Background(), ch)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Receive hung after server close")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	// The handler never answers before the client closes. It blocks on
	// release rather than sleeping: Server.Close waits for in-flight
	// handlers, so the release cleanup — registered after startServer's,
	// hence run before it — must free the handler first.
	release := make(chan struct{})
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		<-release
		return &proto.Response{}
	}
	_, addr := startServer(t, "unix", false, h)
	t.Cleanup(func() { close(release) })
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Send(context.Background(), &proto.Request{TaskID: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Receive(context.Background(), ch); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Receive after Close = %v, want ErrConnClosed", err)
	}
	if _, err := c.Call(context.Background(), &proto.Request{}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Call after Close = %v, want ErrConnClosed", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("unix", filepath.Join(t.TempDir(), "absent.sock")); err == nil {
		t.Fatal("Dial to missing socket succeeded")
	}
}

func TestNilHandlerResponse(t *testing.T) {
	h := func(peer PeerInfo, req *proto.Request) *proto.Response { return nil }
	_, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(context.Background(), &proto.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.EInternal {
		t.Fatalf("nil handler response mapped to %v", resp.Status)
	}
}

func BenchmarkUnixCall(b *testing.B) {
	srv := NewServer(func(peer PeerInfo, req *proto.Request) *proto.Response {
		return &proto.Response{Status: proto.Success}
	}, false)
	addr, err := srv.Listen("unix", filepath.Join(b.TempDir(), "bench.sock"))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial("unix", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := &proto.Request{Op: proto.OpPing}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPushFrameDemux interleaves pipelined Calls with unsolicited push
// frames on one connection: every response must reach its caller and
// every event must surface on the Events channel, in order.
func TestPushFrameDemux(t *testing.T) {
	var pushErr error
	var pushMu sync.Mutex
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		// Before answering, push a burst of events tagged by the
		// request that triggered them.
		for i := uint64(0); i < 3; i++ {
			ev := proto.Event{SubID: 1, Kind: uint32(proto.EvState), TaskID: req.TaskID*10 + i}
			if err := peer.Push(&proto.Response{Status: proto.Success, Event: ev, HasEvent: true}); err != nil {
				pushMu.Lock()
				pushErr = err
				pushMu.Unlock()
				return nil
			}
		}
		return &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	}
	_, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Events()

	const goroutines, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := uint64(g*calls + i + 1)
				resp, err := c.Call(context.Background(), &proto.Request{TaskID: id})
				if err != nil {
					errs <- err
					return
				}
				if resp.TaskID != id {
					errs <- fmt.Errorf("response mismatch: got %d want %d", resp.TaskID, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pushMu.Lock()
	if pushErr != nil {
		t.Fatalf("push failed: %v", pushErr)
	}
	pushMu.Unlock()
	want := goroutines * calls * 3
	got := 0
	timeout := time.After(5 * time.Second)
	for got < want {
		select {
		case ev := <-events:
			if ev.SubID != 1 {
				t.Fatalf("event SubID = %d", ev.SubID)
			}
			got++
		case <-timeout:
			t.Fatalf("received %d/%d events (dropped %d)", got, want, c.DroppedEvents())
		}
	}
	if dropped := c.DroppedEvents(); dropped != 0 {
		t.Fatalf("%d events dropped with a drained consumer", dropped)
	}
}

// TestPushOverflowDropsWithoutBlockingCalls floods the client with push
// frames while nobody drains the Events channel: Calls must keep
// completing and the overflow must be counted, not block the reader.
func TestPushOverflowDropsWithoutBlockingCalls(t *testing.T) {
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		if req.TaskID == 1 {
			for i := 0; i < 5000; i++ {
				ev := proto.Event{SubID: 1, Kind: uint32(proto.EvProgress), TaskID: uint64(i)}
				if err := peer.Push(&proto.Response{Event: ev, HasEvent: true}); err != nil {
					return &proto.Response{Status: proto.EInternal, Error: err.Error()}
				}
			}
		}
		return &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	}
	_, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Events() // register but never drain

	if _, err := c.Call(context.Background(), &proto.Request{TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	// The next Call proves the read loop survived the flood.
	resp, err := c.Call(context.Background(), &proto.Request{TaskID: 2})
	if err != nil || resp.TaskID != 2 {
		t.Fatalf("call after flood: %+v, %v", resp, err)
	}
	if c.DroppedEvents() == 0 {
		t.Fatal("expected dropped events with an undrained consumer")
	}
}

// TestPushWithoutConsumerIsInvisible proves v1-style clients that never
// look at Events are untouched by a pushing server.
func TestPushWithoutConsumerIsInvisible(t *testing.T) {
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		ev := proto.Event{SubID: 1, Kind: uint32(proto.EvState), TaskID: 7}
		_ = peer.Push(&proto.Response{Event: ev, HasEvent: true})
		return &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	}
	_, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(1); i <= 10; i++ {
		resp, err := c.Call(context.Background(), &proto.Request{TaskID: i})
		if err != nil || resp.TaskID != i {
			t.Fatalf("call %d: %+v, %v", i, resp, err)
		}
	}
}

// TestCallContextCancellation proves a client can abandon a stuck RPC:
// the Call returns with the context's error while the daemon handler
// is still blocked, and the connection remains usable.
func TestCallContextCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := func(peer PeerInfo, req *proto.Request) *proto.Response {
		if req.TaskID == 1 {
			<-block // stuck daemon
		}
		return &proto.Response{Status: proto.Success, TaskID: req.TaskID}
	}
	_, addr := startServer(t, "unix", false, h)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Call(ctx, &proto.Request{TaskID: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the call")
	}
	// The connection is still good for other requests.
	resp, err := c.Call(context.Background(), &proto.Request{TaskID: 2})
	if err != nil || resp.TaskID != 2 {
		t.Fatalf("call after abandon: %+v, %v", resp, err)
	}
	// Send with an already-cancelled context fails fast.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Send(done, &proto.Request{TaskID: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Send on cancelled ctx = %v", err)
	}
	// Abandoned calls must not leak pending entries: only the stuck
	// TaskID 1 call may remain in flight.
	for i := 0; i < 32; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _ = c.Call(ctx, &proto.Request{TaskID: 1})
		cancel()
	}
	if n := c.PendingCalls(); n > 1 {
		t.Fatalf("%d pending entries after abandoning calls, want <= 1", n)
	}
}

// TestEventsChannelClosesOnConnFailure unblocks event consumers when
// the connection dies.
func TestEventsChannelClosesOnConnFailure(t *testing.T) {
	srv, addr := startServer(t, "unix", false, nil)
	c, err := Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Events()
	srv.Close()
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("events channel not closed on connection failure")
	}
}

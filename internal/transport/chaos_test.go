package transport

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/failure"
)

func echoServer(t *testing.T, tr Transport, addr string) func() {
	t.Helper()
	closer, err := tr.Listen(addr, func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	return func() { closer.Close() }
}

func TestChaosTransparentWithoutFaults(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	c, err := ch.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if resp, err := c.Call(i); err != nil || resp != i {
			t.Fatalf("call %d: %v %v", i, resp, err)
		}
	}
}

func TestChaosDropReturnsTimeout(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	ch.SetCallFaults(0, 0, 1.0) // drop every response
	c, _ := ch.Dial("s")
	defer c.Close()
	_, err := c.Call("x")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !Retryable(err) {
		t.Fatal("dropped response must be retryable")
	}
}

func TestChaosBlackoutWindowAndRecovery(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	c, _ := ch.Dial("s")
	defer c.Close()
	if _, err := c.Call("before"); err != nil {
		t.Fatal(err)
	}
	ch.Blackout("s", 60*time.Millisecond)
	if _, err := c.Call("during"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err during blackout = %v, want ErrNoEndpoint", err)
	}
	if _, err := ch.Dial("s"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("dial during blackout = %v, want ErrNoEndpoint", err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := c.Call("after"); err != nil {
		t.Fatalf("call after blackout: %v", err)
	}
}

func TestChaosDelayAddsLatency(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	ch.SetCallFaults(1.0, 30*time.Millisecond, 0)
	c, _ := ch.Dial("s")
	defer c.Close()
	start := time.Now()
	if _, err := c.Call("x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("injected delay not observed: call took %v", d)
	}
}

func TestChaosApplySchedule(t *testing.T) {
	sched, err := failure.Draw(7, failure.Plan{
		N: 6, Kinds: []failure.Kind{failure.ServerCrash, failure.NetDelay, failure.NetDrop},
		Horizon: 500 * time.Millisecond, MeanFault: 40 * time.Millisecond, Servers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 6 {
		t.Fatalf("schedule has %d entries", len(sched))
	}
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "srv0")()
	defer echoServer(t, ch, "srv1")()
	// Arm an explicit blackout schedule so the timing is test-controlled.
	ch.Apply(failure.Schedule{
		{At: 1 * time.Millisecond, Kind: failure.ServerCrash, Server: 1, Duration: 50 * time.Millisecond},
	}, []string{"srv0", "srv1"})
	c0, _ := ch.Dial("srv0")
	defer c0.Close()
	c1, _ := ch.Dial("srv1")
	defer c1.Close()
	time.Sleep(5 * time.Millisecond)
	if _, err := c0.Call("x"); err != nil {
		t.Fatalf("untargeted server perturbed: %v", err)
	}
	if _, err := c1.Call("x"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("scheduled blackout missed: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := c1.Call("x"); err != nil {
		t.Fatalf("server did not recover after window: %v", err)
	}
}

func TestChaosKillConnsForcesRedial(t *testing.T) {
	tcp := NewTCP()
	ch := NewChaos(tcp, 1)
	closer, err := ch.Listen("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(interface{ Addr() string }).Addr()
	c, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(echoReq{Msg: "a"}); err != nil {
		t.Fatal(err)
	}
	ch.KillConns(addr)
	// The kill marks the connection broken; the next call transparently
	// re-dials the (still live) endpoint.
	if resp, err := c.Call(echoReq{Msg: "b"}); err != nil || resp.(echoReq).Msg != "b" {
		t.Fatalf("re-dial after kill failed: %v %v", resp, err)
	}
}

func TestChaosKillConnsBreaksInFlightCall(t *testing.T) {
	tcp := NewTCP()
	ch := NewChaos(tcp, 1)
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	closer, err := ch.Listen("127.0.0.1:0", func(req any) (any, error) {
		entered <- struct{}{}
		<-block
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(interface{ Addr() string }).Addr()
	c, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(echoReq{Msg: "stuck"})
		errCh <- err
	}()
	<-entered // the call is in flight, parked in the handler
	ch.KillConns(addr)
	select {
	case err := <-errCh:
		// Release the parked handler before the deferred endpoint Close
		// drains it, then check the error.
		close(block)
		if !errors.Is(err, ErrConnBroken) {
			t.Fatalf("in-flight call err = %v, want ErrConnBroken", err)
		}
	case <-time.After(5 * time.Second):
		close(block)
		t.Fatal("in-flight call hung after connection kill")
	}
}

// TestChaosApplyResetsAddrMappings: re-arming a schedule with a
// different address list must not leave stale addr->id mappings behind,
// which would route the new fault windows to the wrong address.
func TestChaosApplyResetsAddrMappings(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "a")()
	defer echoServer(t, ch, "b")()
	sched := failure.Schedule{
		{Kind: failure.ServerCrash, Server: 0, Duration: time.Hour},
	}
	ch.Apply(sched, []string{"a"})
	if _, err := ch.Dial("a"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("dial a under first schedule = %v, want ErrNoEndpoint", err)
	}
	// Re-arm with server 0 now living at "b": "a" must be clean.
	ch.Apply(sched, []string{"b"})
	ca, err := ch.Dial("a")
	if err != nil {
		t.Fatalf("stale mapping still blacks out a: %v", err)
	}
	defer ca.Close()
	if _, err := ca.Call("x"); err != nil {
		t.Fatalf("call to a after re-arm: %v", err)
	}
	if _, err := ch.Dial("b"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("dial b under second schedule = %v, want ErrNoEndpoint", err)
	}
}

package transport

import (
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"melissa/internal/protocol"
	"melissa/internal/testwait"
)

const dialTimeout = 2 * time.Second

func TestSingleClientSingleRank(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	c, err := Dial([]string{l.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := protocol.TimeStep{SimID: 1, Step: 2, Input: []float32{3}, Field: []float32{4, 5}}
	if err := c.Send(0, want); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-l.Incoming():
		got, ok := env.Msg.(*protocol.TimeStep)
		if !ok || got.SimID != 1 || got.Step != 2 || got.Field[1] != 5 {
			t.Fatalf("got %+v", env.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestMultipleRanksRoundRobin(t *testing.T) {
	const ranks = 3
	listeners := make([]*RankListener, ranks)
	addrs := make([]string, ranks)
	for i := range listeners {
		l, err := Listen("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		listeners[i] = l
		addrs[i] = l.Addr()
	}
	c, err := Dial(addrs, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Ranks() != ranks {
		t.Fatalf("ranks %d", c.Ranks())
	}

	// Distribute steps round-robin as the client library does.
	for step := 0; step < 6; step++ {
		if err := c.Send(step%ranks, protocol.TimeStep{SimID: 0, Step: int32(step)}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < ranks; r++ {
		var got []int32
		for i := 0; i < 2; i++ {
			select {
			case env := <-listeners[r].Incoming():
				got = append(got, env.Msg.(*protocol.TimeStep).Step)
			case <-time.After(2 * time.Second):
				t.Fatalf("rank %d: timed out", r)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if got[0] != int32(r) || got[1] != int32(r+3) {
			t.Fatalf("rank %d received %v", r, got)
		}
	}
}

func TestSendAll(t *testing.T) {
	const ranks = 2
	listeners := make([]*RankListener, ranks)
	addrs := make([]string, ranks)
	for i := range listeners {
		l, err := Listen("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		listeners[i] = l
		addrs[i] = l.Addr()
	}
	c, err := Dial(addrs, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendAll(protocol.Hello{ClientID: 9, Steps: 10}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		select {
		case env := <-listeners[r].Incoming():
			if h, ok := env.Msg.(protocol.Hello); !ok || h.ClientID != 9 {
				t.Fatalf("rank %d: %+v", r, env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("rank %d never got hello", r)
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial([]string{l.Addr()}, dialTimeout)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for s := 0; s < perClient; s++ {
				if err := c.Send(0, protocol.TimeStep{SimID: int32(id), Step: int32(s)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}

	received := map[int32]int{}
	for i := 0; i < clients*perClient; i++ {
		select {
		case env := <-l.Incoming():
			received[env.Msg.(*protocol.TimeStep).SimID]++
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d messages", i)
		}
	}
	wg.Wait()
	for id := int32(0); id < clients; id++ {
		if received[id] != perClient {
			t.Fatalf("client %d delivered %d/%d", id, received[id], perClient)
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial([]string{"127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("expected connection error")
	}
	if _, err := Dial(nil, dialTimeout); err == nil {
		t.Fatal("expected error for empty address list")
	}
}

func TestSendInvalidRank(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial([]string{l.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(5, protocol.Heartbeat{}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := c.Send(-1, protocol.Heartbeat{}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSendAfterClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial([]string{l.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send(0, protocol.Heartbeat{}); err == nil {
		t.Fatal("expected error after close")
	}
}

func TestGarbageBytesDropConnection(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt frame must not crash the listener or emit a message.
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	raw.Close()

	// The listener still serves new clients.
	c, err := Dial([]string{l.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(0, protocol.Heartbeat{ClientID: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-l.Incoming():
		if hb, ok := env.Msg.(protocol.Heartbeat); !ok || hb.ClientID != 3 {
			t.Fatalf("got %+v", env.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("listener stopped serving after garbage input")
	}
}

func TestListenerCloseClosesIncoming(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial([]string{l.Addr()}, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	select {
	case _, open := <-l.Incoming():
		if open {
			// Drain until closed.
			for range l.Incoming() {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Incoming never closed")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWatchdog(t *testing.T) {
	w := NewWatchdog(time.Minute)
	now := time.Unix(1000, 0)
	w.SetClock(func() time.Time { return now })

	w.Beat(1)
	w.Beat(2)
	if got := w.Watched(); got != 2 {
		t.Fatalf("watched %d", got)
	}
	if exp := w.Expired(); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}

	now = now.Add(30 * time.Second)
	w.Beat(2) // client 2 stays alive
	now = now.Add(45 * time.Second)
	exp := w.Expired()
	if len(exp) != 1 || exp[0] != 1 {
		t.Fatalf("expired %v, want [1]", exp)
	}
	// Expiry is reported once.
	if exp := w.Expired(); len(exp) != 0 {
		t.Fatalf("repeated expiry: %v", exp)
	}

	w.Remove(2)
	if w.Watched() != 0 {
		t.Fatal("remove failed")
	}
}

func TestWatchdogConcurrentBeats(t *testing.T) {
	w := NewWatchdog(time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				w.Beat(id)
			}
		}(int32(i))
	}
	wg.Wait()
	if w.Watched() != 8 {
		t.Fatalf("watched %d", w.Watched())
	}
}

// TestReadLoopPooledBuffer pins the three things the pooled read buffer
// must not change: frames that arrive in one segment come out one by one
// and in order, a frame larger than the buffer passes through, and whatever
// a dead connection left unread in its buffer — the rest of a frame cut
// short, whole frames behind a corrupt one — never reaches the connection
// that draws the same buffer from the pool next.
func TestReadLoopPooledBuffer(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	gone := func() { // every readLoop has returned its buffer and its connection
		t.Helper()
		testwait.Until(t, "readLoop exit", func() bool {
			l.mu.Lock()
			defer l.mu.Unlock()
			return len(l.conns) == 0
		})
	}
	next := func() *protocol.TimeStep {
		t.Helper()
		ts, ok := testwait.Recv(t, l.Incoming(), "a frame").Msg.(*protocol.TimeStep)
		if !ok {
			t.Fatal("a frame that no live connection sent was delivered")
		}
		return ts
	}

	conn := dial()
	var burst []byte
	for step := 0; step < 64; step++ {
		burst = protocol.AppendEncode(burst, protocol.TimeStep{SimID: 7, Step: int32(step), Field: []float32{float32(step)}})
	}
	big := make([]float32, clientWriterSize) // 4× the buffer in bytes
	for i := range big {
		big[i] = float32(i)
	}
	burst = protocol.AppendEncode(burst, protocol.TimeStep{SimID: 7, Step: 64, Field: big})
	burst = protocol.AppendEncode(burst, protocol.TimeStep{SimID: 7, Step: 65})
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= 65; step++ {
		ts := next()
		if ts.SimID != 7 || int(ts.Step) != step {
			t.Fatalf("frame %d arrived as sim %d step %d", step, ts.SimID, ts.Step)
		}
		if step == 64 {
			if len(ts.Field) != len(big) || ts.Field[len(big)-1] != big[len(big)-1] {
				t.Fatalf("oversized frame arrived with %d floats", len(ts.Field))
			}
		}
		protocol.RecycleTimeStep(ts)
	}
	conn.Close()
	gone()

	poison := protocol.Encode(protocol.Heartbeat{ClientID: 666})
	for round := 0; round < 16; round++ {
		dying := dial()
		junk := protocol.Encode(protocol.TimeStep{SimID: 9, Step: int32(round), Field: make([]float32, 64)})
		if round%2 == 0 {
			junk = junk[:len(junk)-40] // dies mid-frame
		} else {
			junk[4] = 0xEE // unknown type: the reader stops here, the poison behind it is buffered
			junk = append(junk, poison...)
		}
		if _, err := dying.Write(junk); err != nil {
			t.Fatal(err)
		}
		dying.Close()
		gone()

		live := dial()
		if _, err := live.Write(protocol.Encode(protocol.TimeStep{SimID: 8, Step: int32(round)})); err != nil {
			t.Fatal(err)
		}
		if ts := next(); ts.SimID != 8 || int(ts.Step) != round {
			t.Fatalf("round %d: the live connection delivered sim %d step %d", round, ts.SimID, ts.Step)
		}
		live.Close()
		gone()
	}
	l.Close()
	for env := range l.Incoming() {
		t.Fatalf("stray message after the last connection closed: %+v", env.Msg)
	}
}

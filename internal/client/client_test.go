package client

import (
	"context"
	"testing"
	"time"

	"melissa/internal/protocol"
	"melissa/internal/solver"
	"melissa/internal/transport"
)

// startRanks spins up n rank listeners and returns their addresses.
func startRanks(t *testing.T, n int) ([]*transport.RankListener, []string) {
	t.Helper()
	listeners := make([]*transport.RankListener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := transport.Listen("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		listeners[i] = l
		addrs[i] = l.Addr()
	}
	return listeners, addrs
}

func TestRankRoundRobinOffsetByClientID(t *testing.T) {
	_, addrs := startRanks(t, 3)
	api, err := InitCommunication(Config{ClientID: 2, SimID: 2, ServerAddrs: addrs}, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Abort()
	// §3.2.2: "The destination of the first time step is chosen according
	// to the client id".
	if got := api.Rank(1); got != (2+1)%3 {
		t.Fatalf("Rank(1) = %d", got)
	}
	if got := api.Rank(2); got != (2+2)%3 {
		t.Fatalf("Rank(2) = %d", got)
	}
	if api.Rank(1) == api.Rank(2) {
		t.Fatal("consecutive steps must hit different ranks")
	}
}

func TestInitSendsHelloToAllRanks(t *testing.T) {
	listeners, addrs := startRanks(t, 2)
	api, err := InitCommunication(Config{ClientID: 5, SimID: 5, Restart: 1, ServerAddrs: addrs}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Abort()
	for r, l := range listeners {
		select {
		case env := <-l.Incoming():
			h, ok := env.Msg.(protocol.Hello)
			if !ok || h.ClientID != 5 || h.Steps != 7 || h.Restart != 1 {
				t.Fatalf("rank %d: %+v", r, env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("rank %d never received hello", r)
		}
	}
}

func TestSendConvertsToFloat32(t *testing.T) {
	listeners, addrs := startRanks(t, 1)
	api, err := InitCommunication(Config{ClientID: 0, SimID: 0, ServerAddrs: addrs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Abort()
	<-listeners[0].Incoming() // hello
	if err := api.Send(1, []float64{1.5, 2.5}, []float64{3.25}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-listeners[0].Incoming():
		ts := env.Msg.(*protocol.TimeStep)
		if ts.Input[0] != 1.5 || ts.Input[1] != 2.5 || ts.Field[0] != 3.25 {
			t.Fatalf("payload %+v", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("time step never arrived")
	}
}

func TestFinalizeSendsGoodbye(t *testing.T) {
	listeners, addrs := startRanks(t, 2)
	api, err := InitCommunication(Config{ClientID: 3, SimID: 3, ServerAddrs: addrs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range listeners {
		<-l.Incoming() // hello
	}
	if err := api.FinalizeCommunication(); err != nil {
		t.Fatal(err)
	}
	for r, l := range listeners {
		select {
		case env := <-l.Incoming():
			if g, ok := env.Msg.(protocol.Goodbye); !ok || g.SimID != 3 {
				t.Fatalf("rank %d: %+v", r, env.Msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("rank %d never received goodbye", r)
		}
	}
}

func TestHeartbeatsFlow(t *testing.T) {
	listeners, addrs := startRanks(t, 1)
	api, err := InitCommunication(Config{
		ClientID: 1, SimID: 1, ServerAddrs: addrs,
		HeartbeatInterval: 10 * time.Millisecond,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Abort()
	<-listeners[0].Incoming() // hello
	deadline := time.After(2 * time.Second)
	for {
		select {
		case env := <-listeners[0].Incoming():
			if hb, ok := env.Msg.(protocol.Heartbeat); ok {
				if hb.ClientID != 1 {
					t.Fatalf("heartbeat from %d", hb.ClientID)
				}
				return
			}
		case <-deadline:
			t.Fatal("no heartbeat within deadline")
		}
	}
}

func TestInitCommunicationDialFailure(t *testing.T) {
	_, err := InitCommunication(Config{ClientID: 0, ServerAddrs: []string{"127.0.0.1:1"}, DialTimeout: 100 * time.Millisecond}, 1)
	if err == nil {
		t.Fatal("expected dial error")
	}
}

// heatJob describes one heat-equation ensemble member.
func heatJob(client Config, cfg solver.Config, params solver.Params) Job {
	return Job{
		Client: client,
		NewSim: func() (solver.Simulator, error) { return solver.New(cfg, params) },
		Params: params.Vector(),
		Steps:  cfg.Steps,
		Dt:     cfg.Dt,
	}
}

func TestRunStreamsTrajectory(t *testing.T) {
	listeners, addrs := startRanks(t, 1)
	received := make(chan protocol.Message, 64)
	go func() {
		for env := range listeners[0].Incoming() {
			received <- env.Msg
		}
	}()
	job := heatJob(Config{ClientID: 0, SimID: 0, ServerAddrs: addrs},
		solver.Config{N: 4, Steps: 5, Dt: 0.01},
		solver.Params{TIC: 300, Tx1: 200, Ty1: 200, Tx2: 200, Ty2: 200})
	if err := Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	var steps, goodbyes int
	timeout := time.After(5 * time.Second)
	for steps+goodbyes < 6 {
		select {
		case msg := <-received:
			switch m := msg.(type) {
			case *protocol.TimeStep:
				steps++
				if len(m.Field) != 16 || len(m.Input) != 6 {
					t.Fatalf("dims %d/%d", len(m.Input), len(m.Field))
				}
				// Input carries raw params + physical time.
				if m.Input[0] != 300 || m.Input[5] != float32(float64(m.Step)*0.01) {
					t.Fatalf("input %v for step %d", m.Input, m.Step)
				}
			case protocol.Goodbye:
				goodbyes++
			}
		case <-timeout:
			t.Fatalf("received %d steps %d goodbyes", steps, goodbyes)
		}
	}
	if steps != 5 || goodbyes != 1 {
		t.Fatalf("steps %d goodbyes %d", steps, goodbyes)
	}
}

func TestRunContextCancelled(t *testing.T) {
	_, addrs := startRanks(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := heatJob(Config{ClientID: 0, SimID: 0, ServerAddrs: addrs}, solver.Config{N: 4, Steps: 5, Dt: 0.01}, solver.Params{})
	if err := Run(ctx, job); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestFileCheckpointerRoundtrip(t *testing.T) {
	ck := &FileCheckpointer{Dir: t.TempDir(), Every: 2}
	// Step 1 skipped by cadence, step 2 saved.
	if err := ck.Save(7, 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if step, _, err := ck.Load(7); err != nil || step != 0 {
		t.Fatalf("step %d err %v, want none", step, err)
	}
	if err := ck.Save(7, 2, []float64{3.5, -4.5}); err != nil {
		t.Fatal(err)
	}
	step, field, err := ck.Load(7)
	if err != nil || step != 2 {
		t.Fatalf("step %d err %v", step, err)
	}
	if field[0] != 3.5 || field[1] != -4.5 {
		t.Fatalf("field %v", field)
	}
	// Unknown sim: clean zero.
	if step, field, err := ck.Load(99); err != nil || step != 0 || field != nil {
		t.Fatalf("unknown sim: %d %v %v", step, field, err)
	}
}

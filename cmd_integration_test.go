package melissa

// End-to-end test of the standalone binaries: a melissa-server process and
// several melissa-client processes cooperating over TCP, exactly as a user
// would run them from a shell — once per registered problem.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"melissa/internal/testwait"
)

func TestMultiProcessServerAndClients(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs separate processes")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "melissa-server")
	clientBin := filepath.Join(dir, "melissa-client")
	for bin, pkg := range map[string]string{serverBin: "./cmd/melissa-server", clientBin: "./cmd/melissa-client"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	t.Run("heat", func(t *testing.T) {
		weights := runMultiProcessEnsemble(t, serverBin, clientBin, HeatName)
		// The published checkpoint is self-describing: no architecture
		// arguments are needed to load it.
		s, err := LoadSurrogateFile(weights)
		if err != nil {
			t.Fatal(err)
		}
		field := s.Predict([]float64{300, 200, 400, 250, 350}, 0.03)
		if len(field) != 64 {
			t.Fatalf("field length %d", len(field))
		}
	})
	t.Run("gray-scott", func(t *testing.T) {
		// The same binaries run the second problem end-to-end with just a
		// flag change; the streamed fields are two-channel (128 values).
		runMultiProcessEnsemble(t, serverBin, clientBin, GrayScottName)
	})
}

// TestBenchRejectsNegativeDt: melissa-bench refuses a negative -dt, as the
// binaries that register the shared ensemble flags do, instead of running
// at the problem's default step.
func TestBenchRejectsNegativeDt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a separate process")
	}
	out, err := exec.Command("go", "run", "./cmd/melissa-bench", "-experiment", "fig3", "-dt", "-1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-dt -1 must be > 0") {
		t.Fatalf("melissa-bench -dt -1: err %v, output:\n%s", err, out)
	}
}

// TestMultiProcessRanksOverTCP drives the multi-process deployment: an
// elastic group of one coordinator and two member processes, one training
// rank each, joined over the TCP collective ring, with the ensemble clients
// streaming to both members. No -max-batches: with every member alive the
// group trains until the ensemble completes and every buffer is drained,
// all ranks leave on the same step, and everyone exits 0. Member 0 must
// publish trained weights that load and predict. The f16 leg passes
// -grad-compress to both members, and member 0's summary must report the
// gradient bytes its ring moved in that codec.
func TestMultiProcessRanksOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs separate processes")
	}
	bdir := t.TempDir()
	serverBin := filepath.Join(bdir, "melissa-server")
	clientBin := filepath.Join(bdir, "melissa-client")
	for bin, pkg := range map[string]string{serverBin: "./cmd/melissa-server", clientBin: "./cmd/melissa-client"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	for _, codec := range []string{"none", "f16"} {
		t.Run(codec, func(t *testing.T) {
			summary := runElasticGroup(t, serverBin, clientBin, codec)
			if !strings.Contains(summary, "grad wire") || !strings.Contains(summary, "("+codec+")") {
				t.Fatalf("member 0 summary does not report %s gradient traffic:\n%s", codec, summary)
			}
		})
	}
}

// runElasticGroup runs a coordinator, two members with the given
// -grad-compress and three clients to completion, and returns member 0's
// output.
func runElasticGroup(t *testing.T, serverBin, clientBin, codec string) string {
	t.Helper()
	dir := t.TempDir()
	const members = 2
	const clients = 3
	weights := filepath.Join(dir, "weights.mlsg")
	groupDir := filepath.Join(dir, "group")

	// Reserve a loopback port for the control plane. The listen-close-reuse
	// pattern has a tiny race window, acceptable for a test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := ln.Addr().String()
	ln.Close()

	// procs[0] is the coordinator, procs[1+m] member m; each member
	// publishes its own client address.
	procs := make([]*exec.Cmd, 1+members)
	outs := make([]*strings.Builder, 1+members)
	names := make([]string, 1+members)
	memberAddrFiles := make([]string, members)
	for i := range procs {
		args := []string{"-role", "coordinator", "-coord", coordAddr, "-members", fmt.Sprint(members), "-group-dir", groupDir}
		names[i] = "coordinator"
		if m := i - 1; m >= 0 {
			names[i] = fmt.Sprintf("member %d", m)
			memberAddrFiles[m] = filepath.Join(dir, fmt.Sprintf("addrs-m%d.txt", m))
			args = []string{
				"-coord", coordAddr, "-member-id", fmt.Sprint(m), "-members", fmt.Sprint(members), "-group-dir", groupDir,
				"-ranks", "1", "-clients", fmt.Sprint(clients), "-problem", HeatName,
				"-grid", "8", "-steps", "6", "-batch", "4",
				"-buffer", "Reservoir", "-capacity", "60", "-threshold", "8", "-grad-compress", codec,
				"-addr-file", memberAddrFiles[m], "-surrogate-out", weights}
		}
		cmd := exec.Command(serverBin, args...)
		outs[i] = &strings.Builder{}
		cmd.Stdout = outs[i]
		cmd.Stderr = outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		procs[i] = cmd
	}
	allOutput := func() string {
		var b strings.Builder
		for i, o := range outs {
			fmt.Fprintf(&b, "%s:\n%s\n", names[i], o.String())
		}
		return b.String()
	}

	// Wait for every member to publish, then assemble the client-facing
	// address file in member order — the documented multi-process workflow.
	addrFile := filepath.Join(dir, "addrs.txt")
	var combined string
	testwait.Until(t, "every member to publish its addresses", func() bool {
		combined = ""
		for _, f := range memberAddrFiles {
			data, err := os.ReadFile(f)
			if err != nil || strings.TrimSpace(string(data)) == "" {
				return false
			}
			combined += strings.TrimSpace(string(data)) + "\n"
		}
		return true
	})
	if err := os.WriteFile(addrFile, []byte(combined), 0o644); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			out, err := exec.Command(clientBin,
				"-id", fmt.Sprint(id), "-problem", HeatName, "-grid", "8", "-steps", "6",
				"-addr-file", addrFile).CombinedOutput()
			if err != nil {
				err = fmt.Errorf("client %d: %v\n%s", id, err, out)
			}
			errCh <- err
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	for i, cmd := range procs {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s exited with %v\n%s", names[i], err, allOutput())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not terminate\n%s", names[i], allOutput())
		}
	}
	if !strings.Contains(outs[0].String(), "group complete") {
		t.Fatalf("coordinator output missing its summary:\n%s", outs[0].String())
	}
	if !strings.Contains(outs[1].String(), "trained") {
		t.Fatalf("member 0 output missing summary:\n%s", outs[1].String())
	}

	s, err := LoadSurrogateFile(weights)
	if err != nil {
		t.Fatal(err)
	}
	field := s.Predict([]float64{300, 200, 400, 250, 350}, 0.03)
	if len(field) != 64 {
		t.Fatalf("field length %d", len(field))
	}
	return outs[1].String()
}

// runMultiProcessEnsemble drives one server + 3 clients for a problem and
// returns the path of the written weights file.
func runMultiProcessEnsemble(t *testing.T, serverBin, clientBin, problem string) string {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addrs.txt")
	weights := filepath.Join(dir, "weights.mlsg")
	const clients = 3

	srv := exec.Command(serverBin,
		"-ranks", "2", "-clients", fmt.Sprint(clients), "-problem", problem,
		"-grid", "8", "-steps", "6", "-batch", "4",
		"-buffer", "Reservoir", "-capacity", "60", "-threshold", "8",
		"-addr-file", addrFile, "-surrogate-out", weights)
	var srvOut strings.Builder
	srv.Stdout = &srvOut
	srv.Stderr = &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	testwait.Until(t, "the server to publish its rank addresses", func() bool {
		data, err := os.ReadFile(addrFile)
		return err == nil && strings.Count(strings.TrimSpace(string(data)), "\n") == 1
	})

	// Run the ensemble clients concurrently, as separate processes.
	errCh := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			out, err := exec.Command(clientBin,
				"-id", fmt.Sprint(id), "-problem", problem, "-grid", "8", "-steps", "6",
				"-addr-file", addrFile).CombinedOutput()
			if err != nil {
				err = fmt.Errorf("client %d: %v\n%s", id, err, out)
			}
			errCh <- err
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with %v; output:\n%s", err, srvOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not terminate; output:\n%s", srvOut.String())
	}
	// Every sample of the ensemble is trained on at least once: the
	// summary counts clients × steps unique samples.
	if want := fmt.Sprintf("(%d unique)", clients*6); !strings.Contains(srvOut.String(), want) {
		t.Fatalf("server summary does not report %s:\n%s", want, srvOut.String())
	}
	return weights
}

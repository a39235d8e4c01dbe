package melissa

// End-to-end test of the serving tier binaries: melissa-server trains a
// small ensemble and publishes a self-describing surrogate checkpoint,
// melissa-serve loads and serves it over TCP, and the predict client
// queries it — the full train → publish → serve → query pipeline a user
// would run from a shell.

import (
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/testwait"
)

func TestServeBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs separate processes")
	}
	bdir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"melissa-server", "melissa-client", "melissa-serve"} {
		bin := filepath.Join(bdir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// Train a tiny ensemble, publishing the surrogate periodically and at
	// the end (exercising both publish paths).
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addrs.txt")
	ckpt := filepath.Join(dir, "model.mlsg")
	const clients = 3
	srv := exec.Command(bins["melissa-server"],
		"-ranks", "1", "-clients", fmt.Sprint(clients), "-problem", HeatName,
		"-grid", "8", "-steps", "6", "-batch", "4", "-hidden", "24,24",
		"-buffer", "Reservoir", "-capacity", "60", "-threshold", "8",
		"-addr-file", addrFile, "-surrogate-out", ckpt, "-publish-every", "5")
	var srvOut strings.Builder
	srv.Stdout = &srvOut
	srv.Stderr = &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	testwait.Until(t, "the server to publish its addresses", func() bool {
		data, err := os.ReadFile(addrFile)
		return err == nil && strings.TrimSpace(string(data)) != ""
	})
	errCh := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			out, err := exec.Command(bins["melissa-client"],
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
	if err := srv.Wait(); err != nil {
		t.Fatalf("server exited with %v:\n%s", err, srvOut.String())
	}
	if !strings.Contains(srvOut.String(), "surrogate checkpoint published") {
		t.Fatalf("server output missing publish line:\n%s", srvOut.String())
	}

	// The published checkpoint must be self-describing and loadable.
	sur, err := LoadSurrogateFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Serve it and query over the wire.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	const maxBatch = 8
	serveCmd := exec.Command(bins["melissa-serve"],
		"-checkpoint", ckpt, "-addr", addr, "-replicas", "2",
		"-max-batch", fmt.Sprint(maxBatch), "-cache", "64")
	var serveOut strings.Builder
	serveCmd.Stdout = &serveOut
	serveCmd.Stderr = &serveOut
	if err := serveCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer serveCmd.Process.Kill()

	var pc *client.PredictConn
	testwait.Until(t, "melissa-serve to accept a predict connection", func() bool {
		pc, err = client.DialPredict(addr, time.Second)
		return err == nil
	})
	defer pc.Close()

	info, err := pc.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Problem != HeatName || int(info.OutputDim) != sur.OutputDim() || info.Epoch != 1 {
		t.Fatalf("bad server info %+v", info)
	}

	// Wire answers must be bit-identical to a local replica with the same
	// batch shape.
	params := []float32{300, 200, 400, 250, 350}
	rep := sur.NewReplica(maxBatch)
	var want []float32
	err = rep.PredictBatchRaw(1,
		func(int) ([]float32, float32) { return params, 2 },
		func(_ int, field []float32) { want = append([]float32(nil), field...) })
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := pc.Predict(params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || len(got) != len(want) {
		t.Fatalf("predict returned %d floats at epoch %d", len(got), epoch)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("served field diverges from local replica at %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Admin reload over the wire re-reads the configured checkpoint.
	newEpoch, err := pc.Reload("")
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch != 2 {
		t.Fatalf("reload returned epoch %d, want 2", newEpoch)
	}
	if _, epoch, err = pc.Predict(params, 2); err != nil || epoch != 2 {
		t.Fatalf("predict after reload: epoch %d, err %v", epoch, err)
	}
}

package melissa

import (
	"flag"
	"io"
	"slices"
	"testing"

	"melissa/internal/sampling"
)

// parseFlags registers the training flags on a fresh flag set, parses args
// and finishes, returning the resulting config.
func parseFlags(t *testing.T, args ...string) (Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := DefaultConfig()
	finish := RegisterFlags(fs, &cfg, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg, finish()
}

func TestRegisterFlags(t *testing.T) {
	cfg, err := parseFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.problem().Name() != HeatName || cfg.GridN != def.GridN || cfg.StepsPerSim != def.StepsPerSim ||
		cfg.Dt != def.Dt || cfg.Seed != def.Seed || cfg.Ranks != def.Ranks || !slices.Equal(cfg.Hidden, def.Hidden) ||
		cfg.BatchSize != def.BatchSize || cfg.Buffer != def.Buffer || cfg.Capacity != def.Capacity || cfg.Threshold != def.Threshold {
		t.Fatalf("defaults %+v differ from DefaultConfig %+v", cfg, def)
	}

	cfg, err = parseFlags(t, "-problem", GrayScottName)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Problem.Name() != GrayScottName || cfg.Dt != 1 {
		t.Fatalf("-problem gray-scott gave problem %s at dt %g, want gray-scott at its default 1", cfg.Problem.Name(), cfg.Dt)
	}
	if cfg, err = parseFlags(t, "-problem", GrayScottName, "-dt", "0.5"); err != nil || cfg.Dt != 0.5 {
		t.Fatalf("-dt 0.5 gave dt %g (err %v)", cfg.Dt, err)
	}
	if cfg, err = parseFlags(t, "-hidden", "32,16"); err != nil || !slices.Equal(cfg.Hidden, []int{32, 16}) {
		t.Fatalf("-hidden 32,16 gave %v (err %v)", cfg.Hidden, err)
	}
	for _, args := range [][]string{{"-hidden", "0"}, {"-hidden", "32,x"}, {"-problem", "nope"}, {"-dt", "-1"}, {"-dt", "NaN"}, {"-dt", "+Inf"}} {
		if _, err := parseFlags(t, args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestMemberParamsMatchesClientDraw pins the standalone client's draw: member
// id gets the (id+1)-th point of the seeded design, scaled into the
// problem's box, for every design and problem.
func TestMemberParamsMatchesClientDraw(t *testing.T) {
	for _, prob := range []Problem{Heat(), GrayScott()} {
		space, err := problemSpace(prob)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []sampling.Kind{sampling.MonteCarloKind, sampling.LatinHypercubeKind, sampling.HaltonKind} {
			cfg := DefaultConfig()
			cfg.Problem, cfg.Design = prob, string(kind)
			design, err := sampling.New(kind, space.Dim(), cfg.Seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 5; id++ {
				want := space.Scale(design.Next())
				got, err := MemberParams(cfg, id)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s member %d: %v, want %v", prob.Name(), kind, id, got, want)
				}
			}
		}
	}
}

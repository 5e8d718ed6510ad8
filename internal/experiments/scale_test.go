package experiments

import (
	"testing"

	"fedcross/internal/data"
)

// TestBuildEnvLazyCutoff: vision environments switch to the virtualized
// ClientSource exactly at LazyClientCutoff clients, and stay on the
// historical eager layout below it.
func TestBuildEnvLazyCutoff(t *testing.T) {
	p := TinyProfile()
	p.ClientsPerRound = 8

	p.NumClients = LazyClientCutoff - 1
	env, err := p.BuildEnv("vision10", "mlp", data.Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if env.Fed.Source != nil {
		t.Fatal("below the cutoff the federation must stay eager")
	}
	if env.NumClients() != LazyClientCutoff-1 {
		t.Fatalf("NumClients = %d", env.NumClients())
	}

	p.NumClients = LazyClientCutoff
	env, err = p.BuildEnv("vision10", "mlp", data.Heterogeneity{Beta: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lz, ok := env.Fed.Source.(*data.Lazy)
	if !ok {
		t.Fatalf("at the cutoff the federation must be lazy, got %T", env.Fed.Source)
	}
	if env.NumClients() != LazyClientCutoff {
		t.Fatalf("NumClients = %d", env.NumClients())
	}
	if lz.Resident() != 0 {
		t.Fatalf("construction synthesized %d shards", lz.Resident())
	}
}

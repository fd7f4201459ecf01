package cooper

import "testing"

// WithApproxPredictor sets only the Approx knob (composing with
// WithPredictor), resolves bits <= 0 to the tuned default geometry, and
// is reported by the predictor's kernel name.
func TestWithApproxPredictor(t *testing.T) {
	cfg := buildConfig([]Option{WithApproxPredictor(0, 0)})
	if got, want := cfg.Pipeline.Predictor.Approx, (Approx{Bits: 384, Bands: 48}); got != want {
		t.Fatalf("default geometry = %+v, want %+v", got, want)
	}
	pred := DefaultPredictor()
	pred.MinOverlap = 4
	cfg = buildConfig([]Option{WithPredictor(pred), WithApproxPredictor(256, 32)})
	p := cfg.Pipeline.Predictor
	if p.MinOverlap != 4 {
		t.Fatalf("WithApproxPredictor clobbered the predictor: %+v", p)
	}
	if got, want := p.Approx, (Approx{Bits: 256, Bands: 32}); got != want {
		t.Fatalf("geometry = %+v, want %+v", got, want)
	}
	if got, want := p.KernelName(), "approx(bits=256,bands=32)"; got != want {
		t.Fatalf("KernelName() = %q, want %q", got, want)
	}
}

// Later options win on conflict, and WithConfig merges wholesale.
func TestOptionOrdering(t *testing.T) {
	cfg := buildConfig([]Option{
		WithSeed(1),
		WithShards(4),
		WithSeed(2),
	})
	if cfg.Seed != 2 || cfg.Market.Shards != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	base := Config{Seed: 5}
	cfg = buildConfig([]Option{WithShards(8), WithConfig(base), WithWorkers(3)})
	if cfg.Seed != 5 || cfg.Market.Shards != 0 || cfg.Pipeline.Workers != 3 {
		t.Fatalf("WithConfig merge wrong: %+v", cfg)
	}
}

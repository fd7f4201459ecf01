package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cooper/internal/policy"
	"cooper/internal/stats"
)

// TestUnshardedEpochGolden pins the all-pairs clear's outputs — the
// matching, every agent's recommendation, and the blocking pairs — for
// three back-to-back SMR epochs over one 400-agent population with
// predicted (not oracle) penalties. The digests were recorded with every
// preference row stable-sorted on its own and the exchange run as
// goroutines passing messages, so they pin that the shared-row sort and
// the one-pass exchange reproduce those outputs byte for byte.
func TestUnshardedEpochGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden epochs run the profiling campaign")
	}
	want := []struct{ match, recs, pairs string }{
		{"d1b6e9fee8b0adcd9a5aa79a0b3fa80db69479d733c8ec302bd223100dd472d8",
			"3e9414a38cc0d28bc33038b6a1886ffa13a997e008b741546ce7e8caefdebfcd",
			"2ec5b5a500a6a8f61079798dd9b3847d829edad33a835deb76d515bc1da96d4a"},
		{"02817463f09e7c0524924143dca253779b48fe49b187467633a0812876d9d7af",
			"f581540aea14bcf4b9e12cb46a264645f16c8b9f9dec119596d5e43be9a14077",
			"b9d1ec56ba5ff09d2506ca03e6f83227c2faf7d93602abd453dc4739d464c568"},
		{"4e814a2385f38b4fbc07b29da38bc67da588145b2a7fcc5294f98475c1e304d3",
			"f405840932d7fc72074fd7ad1769bedfea752895d5d7470b014cd81403a9bd5f",
			"5577e5d108bd8f08cfa5f4463953c08efd662bff58569296dac05672c8d25484"},
	}
	f, err := NewFramework(Config{Seed: 11, Market: MarketConfig{Policy: policy.StableMarriageRandom{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(400, stats.Uniform{})
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for e, w := range want {
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		got := struct{ match, recs, pairs string }{
			digest(rep.Match), digest(rep.Recommendations), digest(rep.BlockingPairs),
		}
		if len(rep.BlockingPairs) == 0 {
			t.Fatalf("epoch %d has no blocking pairs; the digests would not exercise the exchange", e)
		}
		if got != w {
			t.Errorf("epoch %d digests = %+v, want %+v", e, got, w)
		}
	}
}

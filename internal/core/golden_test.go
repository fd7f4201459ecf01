package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
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

// goldenDigest is the sha256 of v's JSON encoding.
func goldenDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// canonLog is the framework's flight log with timestamps zeroed.
func canonLog(f *Framework) []telemetry.Event {
	events := f.Telemetry().EventRing().Events()
	for i := range events {
		events[i] = events[i].Canon()
	}
	return events
}

// TestStreamEpochGolden pins the streaming market's outputs for the
// shared churn trace (full clear, two repairs, threshold-forced full
// clear), unsharded and over four shards: each epoch's whole report —
// its matching, recommendations and blocking pairs included — and the
// run's canonical flight log. The digests were recorded before the
// clear/repair dispatch moved into internal/market, so they pin that the
// move changed no output byte.
func TestStreamEpochGolden(t *testing.T) {
	want := map[int]struct {
		reports []string
		log     string
	}{
		1: {[]string{
			"93c6b3c8ffcfdc43ffb341403498a4f35c06d8db65903d4f2c9eec32b3c209ee",
			"4f62c2766121de0a38abb624537310655bff3dcbd03af4428bfb6be4fcf3ed52",
			"a57214250e67d27a898c78d3129da070b2ed789eebc9cd0e14afd3429b2771eb",
			"80d19226f74d8c4792b0d4e40072a687c5b83871ba53f309b719a5aa739d565e",
		}, "8362aac73588767776f411cd03fda05ba65ca915696d9da15ae14ae9a0988d58"},
		4: {[]string{
			"44d9b686f23a5c5db78558fe1097d479b465650d66ab40f23bc1471434c953c1",
			"fc3ce94c3d0af4f8cbc8a5befd753f2e283c1be1b4764036710db5e0a919822d",
			"63cf26e55e37b71076cdd067b9d52095ffd81b3c4ad10712a17de9f39be8d4d8",
			"b4e34fb6eb5b2bf0c95494c2b9559ec8735c7fc4ca976b241c8773ae5437099a",
		}, "46c2ca762f4f99949befc76d2a678460015ff3c6b4ecfad4c753d39f8cd8d4c4"},
	}
	for _, shards := range []int{1, 4} {
		f := streamFramework(t, 0, shards, 31)
		var got []string
		for e, churn := range streamTrace(f.Catalog()) {
			rep, err := f.StreamEpoch(churn)
			if err != nil {
				t.Fatalf("shards=%d epoch %d: %v", shards, e, err)
			}
			if len(rep.BlockingPairs) == 0 {
				t.Fatalf("shards=%d epoch %d has no blocking pairs", shards, e)
			}
			got = append(got, goldenDigest(t, rep))
		}
		log := goldenDigest(t, canonLog(f))
		f.Close()
		w := want[shards]
		if !reflect.DeepEqual(got, w.reports) {
			t.Errorf("shards=%d report digests = %q, want %q", shards, got, w.reports)
		}
		if log != w.log {
			t.Errorf("shards=%d flight-log digest = %s, want %s", shards, log, w.log)
		}
	}
}

// TestShardedRunEpochGolden pins the classic sharded clear: three
// RunEpoch calls over one 300-agent population on four shards, with
// shard-local recommendations and cross-shard refinement, each epoch's
// report and the run's canonical flight log.
func TestShardedRunEpochGolden(t *testing.T) {
	wantReports := []string{
		"411b62c145c269e6c1fec2b4fb644b15d3cc18273f9032d9e89263a90a7fbc66",
		"8eca5dfbf35871adf0046fdeb71509f677351f18dff9d14fdb67ad8de08b6152",
		"93c08966bb7e9006e3f89aee27144076aec83de3b793f794a27f26accf0f8923",
	}
	const wantLog = "727c580192693365fe3864314ac7b42e89531164516d6a202f852e90747ff27e"
	f, err := NewFramework(Config{
		Seed:     17,
		Market:   MarketConfig{Shards: 4},
		Pipeline: PipelineConfig{Oracle: true},
		Observe:  ObserveConfig{Telemetry: telemetry.NewSeeded(17)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(300, stats.Uniform{})
	var got []string
	trades := 0
	for e := range wantReports {
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if len(rep.BlockingPairs) == 0 {
			t.Fatalf("epoch %d has no blocking pairs", e)
		}
		trades += rep.RefinementTrades
		got = append(got, goldenDigest(t, rep))
	}
	if trades == 0 {
		t.Fatal("no refinement trades; the digests would not exercise refinement")
	}
	log := goldenDigest(t, canonLog(f))
	if !reflect.DeepEqual(got, wantReports) {
		t.Errorf("report digests = %q, want %q", got, wantReports)
	}
	if log != wantLog {
		t.Errorf("flight-log digest = %s, want %s", log, wantLog)
	}
}

package netproto

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// wireGoldenRun drives a two-epoch wire run whose flight log is a pure
// function of the server's configuration: twelve agents register one
// after another (so wire IDs follow dial order), one dies after reading
// its first assignment, and a joiner registers while that round is in
// flight. The classic loop re-matches the survivors and admits the
// joiner at the next epoch; the streaming loop repairs around both in
// the live epoch. Every event comes from the Serve goroutine at points
// the test sequences, so the canonical log is identical run to run.
func wireGoldenRun(t *testing.T, rematch bool, shards int) string {
	t.Helper()
	const n = 12
	srv, catalog := testServer(t, n, policy.StableMarriageRandom{})
	srv.Epochs = 2
	srv.Seed = 5
	srv.Rematch = rematch
	srv.Shards = shards
	srv.ChurnThreshold = 0.5
	srv.Metrics = telemetry.NewRegistry()
	srv.Events = telemetry.NewEventRing(4096)
	srv.Span = telemetry.NewSpanSeeded("cooperd", 5)
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	agents := make([]*rawAgent, n)
	for i := range agents {
		agents[i] = rawDial(t, addr, catalog[(i*7)%len(catalog)].Name)
		defer agents[i].conn.Close()
	}
	first := make([]Message, n)
	for i, a := range agents {
		first[i] = a.read()
		if first[i].Type != "assignment" {
			t.Fatalf("agent %d round 0: %q", i, first[i].Type)
		}
	}
	const dies = 4
	agents[dies].conn.Close()
	joiner := rawDial(t, addr, catalog[3].Name)
	defer joiner.conn.Close()

	var wg sync.WaitGroup
	for i, a := range agents {
		if i == dies {
			continue
		}
		wg.Add(1)
		go func(a *rawAgent, m Message) {
			defer wg.Done()
			a.assess(m)
			a.finish()
			a.finish()
		}(a, first[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A streaming server admits the joiner into the live epoch; the
		// classic one defers it to the next.
		joiner.finish()
		if rematch {
			joiner.finish()
		}
	}()
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	events := srv.Events.Events()
	kinds := map[string]int{}
	for i := range events {
		events[i] = events[i].Canon()
		if events[i].Type == telemetry.EventRematchRound {
			kinds[events[i].Kind]++
		}
	}
	if rematch && (kinds["repair"] != 1 || kinds["full"] != 0) {
		t.Fatalf("streaming rematch rounds = %v, want one repair", kinds)
	}
	if !rematch && kinds[""] != 1 {
		t.Fatalf("classic rematch rounds = %v, want one survivor re-match", kinds)
	}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWireFlightLogGolden pins the wire coordinator's flight log for the
// classic and streaming loops, unsharded and over three shards. The
// digests were recorded before the loops moved onto internal/market, so
// they pin that the move changed no logged byte: not a matching, a
// predicted penalty, a rematch payload or a span stamp.
func TestWireFlightLogGolden(t *testing.T) {
	for _, c := range []struct {
		rematch bool
		shards  int
		want    string
	}{
		{false, 1, "7fe09b2ba87d940987a426156f57094d1ef355d49f0e4e3fb2be6ca31a85657e"},
		{false, 3, "fe44814d7d89dd0c33dddc61054e449db8e98d9516bf9b46c6ea1010478a903a"},
		{true, 1, "db316825be756c4e5ec1b20585a7efa690be175e7c10e3274f3c09eff4666f24"},
		{true, 3, "8e09a07bf1a02d43e5793507355f733e618fe149d9ba1ff009c9db8ca32f5823"},
	} {
		t.Run(fmt.Sprintf("rematch=%v/shards=%d", c.rematch, c.shards), func(t *testing.T) {
			got := wireGoldenRun(t, c.rematch, c.shards)
			if got != c.want {
				t.Errorf("flight-log digest = %s, want %s", got, c.want)
			}
		})
	}
}

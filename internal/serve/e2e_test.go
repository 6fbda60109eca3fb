package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/obs"
	"mvpar/internal/walks"
)

// e2ePipeline trains one small real pipeline for the whole test file
// (training dominates the suite's wall time, so it runs once).
var (
	e2eOnce sync.Once
	e2ePl   *core.Pipeline
	e2eErr  error
)

func e2eTrained(t *testing.T) *core.Pipeline {
	t.Helper()
	e2eOnce.Do(func() {
		opts := core.Options{
			Data: dataset.Config{
				Variants:   2,
				WalkParams: walks.Params{Length: 4, Gamma: 8},
				WalkLen:    4,
				EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
				Seed:       1,
			},
			Train: gnn.TrainConfig{Epochs: 4, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 1},
			Seed:  1,
		}
		all := bench.Corpus()
		apps := []bench.App{all[3], all[4], all[9]} // IS, EP, jacobi-2d: both classes
		e2ePl = core.NewPipeline(opts)
		_, e2eErr = e2ePl.TrainOn(apps)
	})
	if e2eErr != nil {
		t.Fatalf("training the e2e pipeline: %v", e2eErr)
	}
	return e2ePl
}

// e2eSources are the user programs the concurrency test replays: a
// parallel map, a loop-carried recurrence, and a reduction.
var e2eSources = map[string]string{
	"map": `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; } }
`,
	"recurrence": `
float v[8];
void main() { for (int i = 1; i < 8; i++) { v[i] = v[i - 1] + 1.0; } }
`,
	"reduction": `
float a[8]; float s;
void main() { for (int i = 0; i < 8; i++) { s += a[i]; } }
`,
}

// e2eSerial computes the serial ground truth for e2eSources through the
// plain Pipeline.ClassifySource path, stamped with the server's initial
// generation.
func e2eSerial(t *testing.T, pl *core.Pipeline) map[string]ClassifyResponse {
	t.Helper()
	serial := map[string]ClassifyResponse{}
	for name, src := range e2eSources {
		preds, err := pl.ClassifySource(name, src)
		if err != nil {
			t.Fatalf("serial ClassifySource(%s): %v", name, err)
		}
		if len(preds) == 0 {
			t.Fatalf("serial ClassifySource(%s) returned no predictions", name)
		}
		resp := toResponse(name, preds, false)
		resp.Generation = 1 // the server's initial generation
		serial[name] = resp
	}
	return serial
}

// burstBitIdentical serves cls under cfg, fires a concurrent burst over
// e2eSources and requires every response to match serial bit for bit;
// Cached is the only field a cache hit may change. With the cache on it
// then replays every program and requires a hit carrying the same bits.
func burstBitIdentical(t *testing.T, cls Inference, serial map[string]ClassifyResponse, cfg Config) {
	t.Helper()
	s := New(cls, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	check := func(name string, code int, resp ClassifyResponse) {
		t.Helper()
		if code != 200 {
			t.Fatalf("request %s = %d, want 200", name, code)
		}
		if resp.Cached && s.cache == nil {
			t.Fatalf("request %s answered from a disabled cache", name)
		}
		want := serial[name]
		want.Cached = resp.Cached
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("response for %s diverged from serial ClassifySource:\n got %+v\nwant %+v",
				name, resp, want)
		}
	}

	batchesBefore := obs.GetCounter("mvpar_http_batches_total").Value()
	const rounds = 8 // 24 concurrent requests over the 3 programs
	type reply struct {
		name string
		code int
		resp ClassifyResponse
	}
	replies := make(chan reply, rounds*len(e2eSources))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for name, src := range e2eSources {
			wg.Add(1)
			go func(name, src string) {
				defer wg.Done()
				code, resp := tryClassify(ts.URL, name, src)
				replies <- reply{name, code, resp}
			}(name, src)
		}
	}
	wg.Wait()
	close(replies)

	n := 0
	for got := range replies {
		n++
		check(got.name, got.code, got.resp)
	}
	if n != rounds*len(e2eSources) {
		t.Fatalf("got %d replies, want %d", n, rounds*len(e2eSources))
	}
	if obs.GetCounter("mvpar_http_batches_total").Value() == batchesBefore {
		t.Fatal("no batches were dispatched under the burst")
	}
	if s.cache == nil {
		return
	}
	// After the burst every program is cached: a repeat must be a hit
	// carrying the same bits the concurrent misses computed.
	for name, src := range e2eSources {
		code, resp := tryClassify(ts.URL, name, src)
		if !resp.Cached {
			t.Fatalf("repeat of %s after the burst was not a cache hit", name)
		}
		check(name, code, resp)
	}
}

// TestServerConcurrentBitIdentical is the issue's acceptance test: under
// concurrent batched load, every server response must be bit-identical
// to the serial Pipeline.ClassifySource result for the same program —
// same loops, same probabilities, bit for bit. It runs with the cache
// off (every request exercises the full pipeline) and with the default
// LRU, where concurrent misses fill the cache while others read it; a
// cache-on response may differ from the serial one only in Cached.
func TestServerConcurrentBitIdentical(t *testing.T) {
	pl := e2eTrained(t)
	serial := e2eSerial(t, pl)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{
		{"cache-off", -1},
		{"default-lru", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Small batch window so batches actually form under the burst.
			burstBitIdentical(t, cls, serial, Config{
				MaxBatch:    4,
				BatchWindow: 5 * time.Millisecond,
				MaxQueue:    64,
				CacheSize:   tc.cacheSize,
			})
		})
	}
}

// TestReplicaWidthBitIdentical checks that the number of replicas a
// generation fans batches over never touches the numbers: with the cache
// off, a concurrent burst served by one, two or three replicas must stay
// bit-identical to the serial ClassifySource result. Run under -race
// this also pins the replica selection and breaker bookkeeping.
func TestReplicaWidthBitIdentical(t *testing.T) {
	pl := e2eTrained(t)
	serial := e2eSerial(t, pl)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("replicas-%d", replicas), func(t *testing.T) {
			burstBitIdentical(t, cls, serial, Config{
				MaxBatch:    4,
				BatchWindow: 2 * time.Millisecond,
				MaxQueue:    64,
				CacheSize:   -1,
				Replicas:    replicas,
			})
		})
	}
}

// TestServerRealWarmupAndOracle checks the server end to end on the real
// model: warm-up flips readiness and a classified program carries the
// exact oracle labels the profiler derives.
func TestServerRealWarmupAndOracle(t *testing.T) {
	pl := e2eTrained(t)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cls, Config{CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if s.Ready() {
		t.Fatal("server ready before warmup")
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if !s.Ready() {
		t.Fatal("server not ready after warmup")
	}

	code, resp, _ := postClassify(t, ts.URL, "user", `
float x[8]; float y[8]; float acc;
void main() {
    for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; }
    for (int i = 1; i < 8; i++) { y[i] = y[i - 1] + x[i]; }
}
`)
	if code != 200 || len(resp.Predictions) != 2 {
		t.Fatalf("classify = %d with %d predictions, want 200 with 2", code, len(resp.Predictions))
	}
	if !resp.Predictions[0].Oracle || resp.Predictions[1].Oracle {
		t.Fatalf("oracle labels wrong: %+v", resp.Predictions)
	}
	for _, p := range resp.Predictions {
		if p.Func != "main" || p.Line == 0 {
			t.Fatalf("provenance missing: %+v", p)
		}
		if p.Proba < 0 || p.Proba > 1 {
			t.Fatalf("proba out of range: %+v", p)
		}
	}
}

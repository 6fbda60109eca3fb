// Package loadgen is the load-test harness behind `mvpar loadgen`: it
// drives a running serve instance with closed- or open-loop traffic,
// separates a warm-up phase from the measured window, and reports
// sustained RPS plus exact latency percentiles as JSON. The report is
// the unit the loadgate regression check compares against a checked-in
// baseline, the same shape as the benchgate/parity gates defend
// microbenchmarks and numeric drift.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Program is one corpus entry requests cycle over.
type Program struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Modes of traffic generation.
const (
	// ModeClosed runs Concurrency workers in a closed loop: each fires
	// its next request the moment the previous one answers, so offered
	// load adapts to server speed — the sustained-throughput measurement.
	ModeClosed = "closed"
	// ModeOpen fires requests at a fixed arrival rate regardless of
	// response times (bounded by Concurrency in-flight so a stalled
	// server cannot accumulate unbounded client goroutines) — the
	// latency-under-offered-load measurement.
	ModeOpen = "open"
)

// Config tunes one load-generation run.
type Config struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Model selects a registry entry (?model=); empty hits the default.
	Model string
	// Mode is ModeClosed (default) or ModeOpen.
	Mode string
	// Concurrency is the closed-loop worker count, and the open-loop
	// in-flight cap; default 8.
	Concurrency int
	// Rate is the open-loop arrival rate in requests/second; required
	// when Mode is ModeOpen.
	Rate float64
	// Duration is the measured window; default 10s.
	Duration time.Duration
	// Warmup runs traffic without recording before the measured window,
	// so cache fills and JIT-like lazy state do not pollute the numbers;
	// default 2s.
	Warmup time.Duration
	// Timeout bounds each request; default 30s.
	Timeout time.Duration
	// Corpus is the set of programs requests cycle over; required.
	Corpus []Program
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Report is the JSON result of one run. Latencies are milliseconds,
// exact order statistics over every recorded request (no histogram
// approximation at loadgen scale).
type Report struct {
	Mode        string  `json:"mode"`
	Model       string  `json:"model,omitempty"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	// WarmupSeconds and DurationSeconds are the configured warm-up and
	// the actual measured window.
	WarmupSeconds   float64 `json:"warmup_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Requests counts everything fired in the measured window; Success
	// the 200s, Shed the 429s (load shedding is the server working as
	// designed, not an error), Errors everything else including
	// transport failures. Skipped counts open-loop ticks dropped because
	// the in-flight cap was reached.
	Requests int64 `json:"requests"`
	Success  int64 `json:"success"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	Skipped  int64 `json:"skipped,omitempty"`
	// RPS is sustained successful requests per measured second.
	RPS float64 `json:"rps"`
	// Latency percentiles over successful requests, milliseconds.
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
}

// worker-private accumulator; merged after the run so the hot path
// never shares a lock.
type tally struct {
	success, shed, errs int64
	lat                 []time.Duration // successful requests only
}

// classifyBody is the request body wire shape (mirrors serve's
// ClassifyRequest without importing it: loadgen drives the server over
// the wire like any external client).
type classifyBody struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Model  string `json:"model,omitempty"`
}

// Run drives one load-generation run against a live server and returns
// its report. ctx cancellation stops the run early (the report then
// covers the shortened window).
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return Report{}, fmt.Errorf("loadgen: server URL required")
	}
	if len(cfg.Corpus) == 0 {
		return Report{}, fmt.Errorf("loadgen: empty corpus")
	}
	if cfg.Mode != ModeClosed && cfg.Mode != ModeOpen {
		return Report{}, fmt.Errorf("loadgen: unknown mode %q (valid: %s, %s)", cfg.Mode, ModeClosed, ModeOpen)
	}
	if cfg.Mode == ModeOpen && cfg.Rate <= 0 {
		return Report{}, fmt.Errorf("loadgen: open-loop mode requires a positive rate")
	}

	client := &http.Client{Timeout: cfg.Timeout}
	target := cfg.URL + "/v1/classify"
	if cfg.Model != "" {
		target += "?model=" + cfg.Model
	}
	bodies := make([][]byte, len(cfg.Corpus))
	for i, p := range cfg.Corpus {
		b, err := json.Marshal(classifyBody{Name: p.Name, Source: p.Source, Model: cfg.Model})
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: corpus entry %q: %w", p.Name, err)
		}
		bodies[i] = b
	}

	// recording flips when the warm-up window ends; workers check it per
	// request. measuredStart is set at the flip for the RPS denominator.
	var recording atomic.Bool
	var measuredStart atomic.Int64
	arm := func() {
		measuredStart.Store(time.Now().UnixNano())
		recording.Store(true)
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Warmup+cfg.Duration)
	defer cancel()
	var warmTimer *time.Timer
	if cfg.Warmup > 0 {
		warmTimer = time.AfterFunc(cfg.Warmup, arm)
		defer warmTimer.Stop()
	} else {
		arm()
	}

	fire := func(t *tally, seq int64) {
		start := time.Now()
		rec := recording.Load()
		code, err := doRequest(runCtx, client, target, bodies[seq%int64(len(bodies))])
		if !rec {
			return
		}
		switch {
		case err != nil:
			// A request cut short by the end of the measured window is the
			// harness stopping, not a server failure.
			if runCtx.Err() != nil {
				return
			}
			t.errs++
		case code == http.StatusOK:
			t.success++
			t.lat = append(t.lat, time.Since(start))
		case code == http.StatusTooManyRequests:
			t.shed++
		default:
			t.errs++
		}
	}

	tallies := make([]*tally, cfg.Concurrency)
	for i := range tallies {
		tallies[i] = &tally{}
	}
	var skipped atomic.Int64
	var wg sync.WaitGroup
	var seq atomic.Int64

	switch cfg.Mode {
	case ModeClosed:
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(t *tally) {
				defer wg.Done()
				for runCtx.Err() == nil {
					fire(t, seq.Add(1))
				}
			}(tallies[w])
		}
	case ModeOpen:
		// One goroutine per arrival, bounded by a Concurrency-slot
		// semaphore; a full semaphore drops the tick (counted) instead of
		// letting a stalled server pile up client goroutines.
		sem := make(chan *tally, cfg.Concurrency)
		for _, t := range tallies {
			sem <- t
		}
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	arrivals:
		for {
			select {
			case <-runCtx.Done():
				break arrivals
			case <-ticker.C:
				select {
				case t := <-sem:
					wg.Add(1)
					go func() {
						defer wg.Done()
						fire(t, seq.Add(1))
						sem <- t
					}()
				default:
					if recording.Load() {
						skipped.Add(1)
					}
				}
			}
		}
	}
	wg.Wait()
	measured := time.Duration(0)
	if ms := measuredStart.Load(); ms > 0 {
		measured = time.Since(time.Unix(0, ms))
		if capped := cfg.Duration; measured > capped {
			measured = capped
		}
	}
	return buildReport(cfg, tallies, skipped.Load(), measured), nil
}

// doRequest fires one classify call, returning the status code (body
// drained and discarded — keep-alive needs it read).
func doRequest(ctx context.Context, client *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// buildReport merges the worker tallies into the final report.
func buildReport(cfg Config, tallies []*tally, skipped int64, measured time.Duration) Report {
	r := Report{
		Mode:          cfg.Mode,
		Model:         cfg.Model,
		Concurrency:   cfg.Concurrency,
		WarmupSeconds: cfg.Warmup.Seconds(),
		Skipped:       skipped,
	}
	if cfg.Mode == ModeOpen {
		r.RateTarget = cfg.Rate
	}
	var lats []time.Duration
	for _, t := range tallies {
		r.Success += t.success
		r.Shed += t.shed
		r.Errors += t.errs
		lats = append(lats, t.lat...)
	}
	r.Requests = r.Success + r.Shed + r.Errors
	if measured <= 0 {
		measured = cfg.Duration
	}
	r.DurationSeconds = measured.Seconds()
	if r.DurationSeconds > 0 {
		r.RPS = float64(r.Success) / r.DurationSeconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		r.LatencyP50Ms = percentileMs(lats, 0.50)
		r.LatencyP95Ms = percentileMs(lats, 0.95)
		r.LatencyP99Ms = percentileMs(lats, 0.99)
		r.LatencyMeanMs = float64(sum) / float64(len(lats)) / float64(time.Millisecond)
		r.LatencyMaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	return r
}

// percentileMs is the exact order statistic: the smallest recorded
// latency ≥ p of the distribution (nearest-rank), in milliseconds.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(len(sorted))*p)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

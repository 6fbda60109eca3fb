package serve

import (
	"testing"
	"time"
)

// fakeClock drives breaker time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(clk *fakeClock, threshold int, backoff, max time.Duration) *breaker {
	return newBreaker(breakerConfig{
		threshold:  threshold,
		backoff:    backoff,
		maxBackoff: max,
		now:        clk.now,
	}, 99)
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, 3, time.Second, time.Minute)

	if !b.allow() {
		t.Fatal("fresh breaker refused")
	}
	b.failure()
	b.failure()
	if b.currentState() != breakerClosed || !b.allow() {
		t.Fatal("breaker tripped below threshold")
	}
	b.failure() // third consecutive fault
	if b.currentState() != breakerOpen {
		t.Fatalf("state after threshold faults = %d, want open", b.currentState())
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request before backoff")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, 3, time.Second, time.Minute)
	b.failure()
	b.failure()
	b.success() // streak broken
	b.failure()
	b.failure()
	if b.currentState() != breakerClosed {
		t.Fatal("non-consecutive faults tripped the breaker")
	}
	b.failure()
	if b.currentState() != breakerOpen {
		t.Fatal("three consecutive faults after a reset did not trip")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, 1, time.Second, time.Minute)
	b.failure()
	if b.currentState() != breakerOpen {
		t.Fatal("threshold-1 breaker did not trip on first fault")
	}

	clk.advance(999 * time.Millisecond)
	if b.allow() {
		t.Fatal("open breaker admitted before the backoff elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.allow() {
		t.Fatal("backoff elapsed but probe refused")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state after probe admission = %d, want half-open", b.currentState())
	}
	// Exactly one probe: concurrent callers are refused while it runs.
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}

	b.success()
	if b.currentState() != breakerClosed || !b.allow() {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestBreakerFailedProbeDoublesBackoff(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, 1, time.Second, 3*time.Second)
	b.failure() // open, wait 1s

	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	b.failure() // failed probe → open, wait 2s

	clk.advance(time.Second)
	if b.allow() {
		t.Fatal("breaker admitted after 1s though backoff doubled to 2s")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("probe refused after doubled backoff elapsed")
	}
	b.failure() // 2s*2 = 4s, capped to maxBackoff 3s

	clk.advance(3*time.Second - time.Millisecond)
	if b.allow() {
		t.Fatal("breaker ignored the capped backoff")
	}
	clk.advance(time.Millisecond)
	if !b.allow() {
		t.Fatal("probe refused after capped backoff elapsed")
	}
	// Recovery resets the backoff to the base interval.
	b.success()
	b.failure()
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("backoff did not reset after recovery")
	}
}

func TestGenerationAcquireSkipsOpenBreakers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	bcfg := breakerConfig{threshold: 1, backoff: time.Hour, maxBackoff: time.Hour, now: clk.now}
	gen := newGeneration(7, "default", snapshotOf(&stubInference{}, 3), bcfg)

	if gen.healthy() != 3 {
		t.Fatalf("healthy = %d, want 3", gen.healthy())
	}
	// Trip replicas 0 and 1.
	gen.reps[0].br.failure()
	gen.reps[1].br.failure()
	if gen.healthy() != 1 {
		t.Fatalf("healthy = %d, want 1", gen.healthy())
	}
	for i := 0; i < 10; i++ {
		rep, ok := gen.acquire()
		if !ok || rep.id != 2 {
			t.Fatalf("acquire routed to replica %v (ok=%v), want the healthy one", rep, ok)
		}
	}
	gen.reps[2].br.failure()
	if _, ok := gen.acquire(); ok {
		t.Fatal("acquire succeeded with every breaker open")
	}
	if gen.healthy() != 0 {
		t.Fatalf("healthy = %d, want 0", gen.healthy())
	}
}

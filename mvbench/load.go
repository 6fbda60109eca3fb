package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Load shapes: an open loop sends on a fixed schedule whatever the server
// does; a closed loop sends a client's next request once the previous one
// answered.
const (
	openLoop   = "open"
	closedLoop = "closed"
)

// clients is the concurrency cap of the load generator: at most this
// many requests are in flight, in both loop shapes.
const clients = 2

// missSmallRate is miss-small's open-loop arrival rate, in requests per
// second: about half of what two closed-loop clients sustain on a
// 2-vCPU box (180-190 requests/s, see WORKLOADS.md).
const missSmallRate = 90

// maxLag is how late the open loop may send a request before it drops
// it; a dropped request counts as an error.
const maxLag = time.Second

// shapeOf gives a workload's load shape.
func shapeOf(workload string) string {
	if workload == wlMissSmall {
		return openLoop
	}
	return closedLoop
}

// wirePrediction and wireResponse mirror the fields of the server's
// /v1/classify answer that the benchmark checks.
type wirePrediction struct {
	LoopID   int     `json:"loop_id"`
	Parallel bool    `json:"parallel"`
	Proba    float64 `json:"proba"`
	Oracle   bool    `json:"oracle"`
	Degraded bool    `json:"degraded"`
}

type wireResponse struct {
	Name        string           `json:"name"`
	Predictions []wirePrediction `json:"predictions"`
	Cached      bool             `json:"cached"`
	Precision   string           `json:"precision"`
}

// result is one request as the load generator saw it.
type result struct {
	req     Request
	due     time.Time // open loop: when it was scheduled; closed loop: sent
	sent    time.Time
	done    time.Time
	status  int // 0 when the request never got an HTTP answer
	dropped bool
	resp    wireResponse
	bad     string // why the output check rejected it, "" if it passed
}

// ok reports a 200 answer.
func (r *result) ok() bool { return r.status == http.StatusOK }

// latency is the user-visible latency: from due time in the open loop,
// from send time in the closed loop (where the two coincide).
func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// loadGen drives one server with one workload's request sequence.
type loadGen struct {
	base   string
	gen    *Generator
	shape  string
	client *http.Client
	next   atomic.Int64 // next sequence index
	bodies sync.Map     // hot request name+model -> encoded body
}

func newLoadGen(base string, gen *Generator, shape string) *loadGen {
	return &loadGen{
		base:  base,
		gen:   gen,
		shape: shape,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
}

// body encodes a request; hot resubmissions reuse their encoding so the
// hit path does not pay for JSON encoding of the source each time.
func (l *loadGen) body(r Request) []byte {
	if r.Hot {
		if b, ok := l.bodies.Load(r.Model + "|" + r.Name); ok {
			return b.([]byte)
		}
	}
	b, _ := json.Marshal(struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Model  string `json:"model,omitempty"`
	}{r.Name, r.Source, r.Model}) // cannot fail: plain strings
	if r.Hot {
		l.bodies.Store(r.Model+"|"+r.Name, b)
	}
	return b
}

// send performs one request and fills the result. Latency ends when the
// whole answer has been read; decoding it is not timed.
func (l *loadGen) send(ctx context.Context, res *result, body []byte) {
	res.sent = time.Now()
	status, data := l.post(ctx, body)
	res.done = time.Now()
	res.status = status
	if res.ok() && json.Unmarshal(data, &res.resp) != nil {
		res.status = -1 // a 200 whose body is not a classify answer
	}
}

// post sends one classify request; status 0 means no HTTP answer.
func (l *loadGen) post(ctx context.Context, body []byte) (int, []byte) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(hreq)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// run drives one phase for d and returns every request it sent or
// dropped, after all of them have answered, and how long the phase took
// from its first send until its last answer.
func (l *loadGen) run(ctx context.Context, d time.Duration) ([]*result, time.Duration) {
	start := time.Now()
	var out []*result
	if l.shape == openLoop {
		out = l.runOpen(ctx, d)
	} else {
		out = l.runClosed(ctx, d)
	}
	end := start
	for _, r := range out {
		if r.sent.Before(start) {
			start = r.sent
		}
		if r.done.After(end) {
			end = r.done
		}
	}
	return out, end.Sub(start)
}

// runOpen sends at missSmallRate, with at most `clients` requests in
// flight. A request waits for a free slot; its latency runs from its due
// time, so a stall shows on the requests queued behind it.
func (l *loadGen) runOpen(ctx context.Context, d time.Duration) []*result {
	n := int(d.Seconds() * missSmallRate)
	// Encode every request of the phase before the first is due, so the
	// schedule is not paced by generation.
	out := make([]*result, n)
	bodies := make([][]byte, n)
	for k := range out {
		i := l.next.Add(1) - 1
		out[k] = &result{req: l.gen.Request(i)}
		bodies[k] = l.body(out[k].req)
	}
	start := time.Now()
	slots := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for k, res := range out {
		res.due = start.Add(time.Duration(float64(k) / missSmallRate * float64(time.Second)))
		if w := time.Until(res.due); w > 0 {
			time.Sleep(w)
		}
		slots <- struct{}{}
		if time.Since(res.due) > maxLag {
			res.dropped = true
			res.sent, res.done = res.due, res.due
			<-slots
			continue
		}
		wg.Add(1)
		go func(res *result, body []byte) {
			defer wg.Done()
			l.send(ctx, res, body)
			<-slots
		}(res, bodies[k])
	}
	wg.Wait()
	return out
}

// runClosed runs `clients` workers that each send their next request as
// soon as the previous one answered, until d has passed.
func (l *loadGen) runClosed(ctx context.Context, d time.Duration) []*result {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var out []*result
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*result
			for time.Now().Before(end) {
				i := l.next.Add(1) - 1
				res := &result{req: l.gen.Request(i)}
				body := l.body(res.req)
				l.send(ctx, res, body)
				res.due = res.sent
				mine = append(mine, res)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverFlags are the flags the benchmark starts `mvpar serve` with; every
// other flag keeps its default. The listen address is appended per start.
var serverFlags = []string{"serve", "-quick", "-models", fastModel + "=@int8"}

// serverProc is one running `mvpar serve` process on loopback.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	logs bytes.Buffer
	done chan struct{} // closed once cmd.Wait returns
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer starts the server binary and waits until /readyz answers
// 200. It returns the set-up time: process start until ready, which
// covers quick training and warm-up.
func startServer(ctx context.Context, bin string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := append(append([]string(nil), serverFlags...), "-addr", addr)
	p := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = &p.logs
	p.cmd.Stderr = &p.logs
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("server exited before ready: %s", p.logs.String())
		case <-ctx.Done():
			p.stop()
			return nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, errors.New("server not ready after 120s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking of the
// server, so the next VmHWM read covers the time since the reset alone.
func (p *serverProc) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", p.cmd.Process.Pid), []byte("5"), 0)
}

// rssSlice is how long each peak-RSS reading of the window covers.
const rssSlice = 2 * time.Second

// rssSampler reads the server's peak RSS over consecutive slices of the
// measured window.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks sample // MB, one per slice
	err   error
}

// samplePeakRSS starts reading the server's peak RSS every rssSlice,
// resetting it after each reading, until finish is called.
func (p *serverProc) samplePeakRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			if s.err = p.resetPeakRSS(); s.err != nil {
				return
			}
			stopping := false
			select {
			case <-time.After(rssSlice):
			case <-s.stop:
				stopping = true
			}
			kb, err := p.procStatusKB("VmHWM")
			if err != nil {
				s.err = err
				return
			}
			s.peaks = append(s.peaks, kb/1024)
			if stopping {
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the per-slice peaks.
func (s *rssSampler) finish() (sample, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// procStatusKB reads one kB-valued field of the server's /proc status.
func (p *serverProc) procStatusKB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// modelFingerprints reads each served model's fingerprint from
// /v1/models, keyed by request model name ("" = the default model).
func modelFingerprints(base string) (map[string]string, error) {
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Models []struct {
			Name        string `json:"name"`
			Default     bool   `json:"default"`
			Fingerprint string `json:"fingerprint"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/models: %w", err)
	}
	out := map[string]string{}
	for _, m := range body.Models {
		name := m.Name
		if m.Default {
			name = ""
		}
		out[name] = m.Fingerprint
	}
	return out, nil
}

// scrape reads the unlabeled samples of the server's Prometheus
// exposition.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

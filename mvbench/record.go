package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machine identifies where a result was measured. Results from
// different machines are not comparable.
type machine struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// runRecord is the full account of one run, written next to the build.
type runRecord struct {
	Machine     machine  `json:"machine"`
	Commit      string   `json:"commit"`        // empty outside a git checkout
	Source      string   `json:"source_digest"` // sha256 of the module's Go sources
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Trace       int      `json:"trace"`
	ServerFlags []string `json:"server_flags"`
	Shape       string   `json:"load_shape"`
	Clients     int      `json:"clients"`
	RatePerSec  float64  `json:"rate_per_s,omitempty"`

	SetupRuns         sample         `json:"setup_runs_s,omitempty"`
	RSSPeaksMB        sample         `json:"rss_peaks_mb,omitempty"` // per 2 s slice of the window
	Samples           map[string]int `json:"samples"`
	ErrorShare        float64        `json:"error_share"`
	DegradedShare     float64        `json:"degraded_share"`
	PooledP50Ms       float64        `json:"pooled_latency_p50_ms"` // over the whole window
	PooledP99Ms       float64        `json:"pooled_latency_p99_ms"`
	GeneratorLagP99Ms float64        `json:"generator_lag_p99_ms"`
	Check             checkReport    `json:"check"`
	CrossCheck        []crossRow     `json:"metrics_cross_check"`
	Notes             []string       `json:"notes,omitempty"`
	Result            output         `json:"result"`
}

func newRecord(workload string, seed int64, seconds, trace int) *runRecord {
	r := &runRecord{
		Machine:     currentMachine(),
		Commit:      gitCommit(),
		Source:      sourceDigest("."),
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Trace:       trace,
		ServerFlags: serverFlags,
		Shape:       shapeOf(workload),
		Clients:     clients,
	}
	if r.Shape == openLoop {
		r.RatePerSec = missSmallRate
	}
	return r
}

func currentMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// gitCommit returns HEAD's commit, or "" when the checkout is not a git
// repository (the source digest then identifies the code).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (the
// checkout the benchmark runs from), skipping hidden directories, the
// build output among them.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// write stores the record as <dir>/<workload>-seed<seed>-trace<trace>.json.
func (r *runRecord) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// compareRecords prints the metrics of two run records side by side. It
// refuses records measured on different machines.
func compareRecords(w io.Writer, a, b string) error {
	var ra, rb runRecord
	for _, p := range []struct {
		path string
		rec  *runRecord
	}{{a, &ra}, {b, &rb}} {
		data, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, p.rec); err != nil {
			return fmt.Errorf("%s: %w", p.path, err)
		}
	}
	if ra.Machine != rb.Machine {
		return fmt.Errorf("refusing to compare runs from different machines:\n  %s: %+v\n  %s: %+v", a, ra.Machine, b, rb.Machine)
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace || ra.Seconds != rb.Seconds {
		return fmt.Errorf("refusing to compare different runs: %s/trace%d/%ds vs %s/trace%d/%ds",
			ra.Workload, ra.Trace, ra.Seconds, rb.Workload, rb.Trace, rb.Seconds)
	}
	names := make([]string, 0, len(ra.Result.Metrics))
	for n := range ra.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, n := range names {
		va, vb := ra.Result.Metrics[n], rb.Result.Metrics[n]
		fmt.Fprintf(w, "%-26s %14.6g %14.6g %+8.1f%% %s\n", n, va.Value, vb.Value, 100*ratio(vb.Value-va.Value, va.Value), va.Unit)
	}
	return nil
}

// Package obs is the pipeline-wide observability layer: a leveled
// structured logger, a process-wide metrics registry (counters, gauges,
// histograms) and stage spans. It depends only on the standard library.
//
// StartSpan is the one instrumentation call of every pipeline stage
// (parse, profile, encode, walks, forward, and the serving layer's
// batcher and replica). A span always records the stage's wall time in
// its histogram, and when the context carries a request trace (package
// obs/trace) it also adds a span to that trace. Untraced spans allocate
// nothing.
//
// Everything defaults to off/invisible: the logger is silent unless a
// level is set (via SetLevel, the --log-level flags of the binaries, or
// the MVPAR_LOG environment variable), and metrics accumulate in memory
// without producing output until Dump is called. Library users and tests
// that never touch the package see byte-identical behavior.
//
// Metric names follow the stable scheme mvpar_<stage>_<unit>, e.g.
// mvpar_interp_steps_total or mvpar_dataset_records_total; span
// histograms are named mvpar_span_<stage>_seconds. See
// docs/observability.md for the full catalogue.
package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a logging severity level.
type Level int32

// Levels in increasing severity; LevelOff disables all logging.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String returns the canonical lower-case level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "off"
	}
}

// ParseLevel parses a level name ("debug", "info", "warn", "error",
// "off"/"silent"/"").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "silent", "none", "":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("obs: unknown log level %q", s)
}

var (
	logLevel atomic.Int32

	logMu  sync.Mutex
	logOut io.Writer = os.Stderr
	// logTime stamps each line; tests disable it for stable output.
	logTime atomic.Bool
)

func init() {
	logLevel.Store(int32(LevelOff))
	logTime.Store(true)
	if s, ok := os.LookupEnv("MVPAR_LOG"); ok {
		if l, err := ParseLevel(s); err == nil {
			logLevel.Store(int32(l))
		}
	}
}

// SetLevel sets the global logging level.
func SetLevel(l Level) { logLevel.Store(int32(l)) }

// CurrentLevel returns the global logging level.
func CurrentLevel() Level { return Level(logLevel.Load()) }

// Enabled reports whether messages at level l are emitted.
func Enabled(l Level) bool { return l >= CurrentLevel() && CurrentLevel() != LevelOff }

// SetOutput redirects log output (default os.Stderr).
func SetOutput(w io.Writer) {
	logMu.Lock()
	defer logMu.Unlock()
	logOut = w
}

// SetTimestamps toggles the leading time field of each log line; tests
// disable it to compare output exactly.
func SetTimestamps(on bool) { logTime.Store(on) }

// Debug logs at debug level. kv are alternating key, value pairs.
func Debug(msg string, kv ...any) { logAt(LevelDebug, msg, kv...) }

// Info logs at info level.
func Info(msg string, kv ...any) { logAt(LevelInfo, msg, kv...) }

// Warn logs at warn level.
func Warn(msg string, kv ...any) { logAt(LevelWarn, msg, kv...) }

// Error logs at error level.
func Error(msg string, kv ...any) { logAt(LevelError, msg, kv...) }

func logAt(l Level, msg string, kv ...any) {
	if !Enabled(l) {
		return
	}
	var b strings.Builder
	if logTime.Load() {
		b.WriteString(time.Now().UTC().Format(time.RFC3339))
		b.WriteByte(' ')
	}
	b.WriteString(strings.ToUpper(l.String()))
	b.WriteByte(' ')
	b.WriteString(msg)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v=%s", kv[i], formatValue(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		fmt.Fprintf(&b, " %s=?", formatValue(kv[len(kv)-1]))
	}
	b.WriteByte('\n')
	logMu.Lock()
	defer logMu.Unlock()
	io.WriteString(logOut, b.String())
}

// formatValue renders one log value, quoting strings that contain
// whitespace or '=' so lines stay machine-splittable.
func formatValue(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.6g", x)
	case float32:
		return fmt.Sprintf("%.6g", x)
	case time.Duration:
		return x.String()
	case string:
		if strings.ContainsAny(x, " \t\n=\"") {
			return fmt.Sprintf("%q", x)
		}
		return x
	default:
		s := fmt.Sprintf("%v", x)
		if strings.ContainsAny(s, " \t\n=\"") {
			return fmt.Sprintf("%q", s)
		}
		return s
	}
}

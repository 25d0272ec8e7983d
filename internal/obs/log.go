package obs

import (
	"context"
	"io"
	"log/slog"
)

// Structured-logging conventions (see doc.go for the full field table):
// the fleet, workers, and campaignd log through *slog.Logger handles
// built here. Text output is the human default (no timestamp — these are
// terminal lines; a collector adds its own), JSON output carries the
// standard slog time field for ingestion. Every line about a unit of
// work carries that unit's ids as attributes: job, lease, shard, worker,
// trace, tenant.

// Log format names accepted by NewLogger and the CLI -log-format flags.
const (
	LogText = "text"
	LogJSON = "json"
)

// NewLogger builds a leveled structured logger writing to w. format is
// LogText or LogJSON; anything else falls back to text. A nil w returns
// the no-op logger.
func NewLogger(w io.Writer, format string) *slog.Logger {
	if w == nil {
		return NopLogger()
	}
	if format == LogJSON {
		return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: slog.LevelInfo,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// ValidLogFormat reports whether format names a supported -log-format
// value.
func ValidLogFormat(format string) bool {
	return format == LogText || format == LogJSON
}

// NopLogger returns a logger that discards everything with zero
// formatting cost (its handler reports every level disabled), so
// components can hold a non-nil *slog.Logger unconditionally.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// TraceAttr renders a trace id as the conventional `trace` log field
// (omitted — an empty group — when the id is zero, i.e. untraced).
func TraceAttr(id uint64) slog.Attr {
	if id == 0 {
		return slog.Attr{}
	}
	return slog.String("trace", FormatTraceID(id))
}

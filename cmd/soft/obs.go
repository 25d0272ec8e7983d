package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/soft-testing/soft/internal/obs"
)

// startTrace turns span tracing on and returns the flush function that
// stops the tracer and writes the run's Chrome-trace-event JSON to path
// (load it at ui.perfetto.dev or chrome://tracing). Tracing is
// observation-only: the result bytes are identical with or without it.
func startTrace(path string) func() error {
	tr := obs.StartTracing()
	return func() error {
		tr.Stop()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// logFormatFlag registers the shared -log-format flag (see obs.NewLogger:
// "text" drops timestamps for stable greppable output, "json" emits one
// object per line for log pipelines).
func logFormatFlag(fs *flag.FlagSet) *string {
	return fs.String("log-format", obs.LogText, "structured log rendering: text or json")
}

// newCLILogger validates -log-format and builds the logger lifecycle
// lines render through.
func newCLILogger(w io.Writer, format string) (*slog.Logger, error) {
	if !obs.ValidLogFormat(format) {
		return nil, usagef("invalid -log-format %q (want text or json)", format)
	}
	return obs.NewLogger(w, format), nil
}

// newMetricsMux builds the standalone observability endpoint used by
// subcommands that have no API server of their own (`soft matrix`):
// GET /metrics in Prometheus text format, plus the net/http/pprof
// handlers when withPprof is set.
func newMetricsMux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w)
	})
	if withPprof {
		addPprof(mux)
	}
	return mux
}

// addPprof mounts the net/http/pprof handlers on mux explicitly — the
// CLI never serves DefaultServeMux, so the package's init registrations
// alone would expose nothing.
func addPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func statsCmd() *command {
	return &command{
		name:     "stats",
		synopsis: "fetch a live campaign's metrics (serve them with soft matrix -metrics-addr)",
		run:      runStats,
	}
}

func runStats(e *env, args []string) error {
	fs := newFlags(e, "stats")
	service := fs.String("service", "", "base URL of a metrics endpoint, e.g. http://127.0.0.1:9090 for 'soft matrix -metrics-addr 127.0.0.1:9090' (required)")
	raw := fs.Bool("raw", false, "print the Prometheus exposition body verbatim (histogram buckets included)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *service == "" {
		return usagef("a -service URL is required: start the campaign with 'soft matrix -metrics-addr' and pass the address it prints")
	}
	return printServiceMetrics(e, *service, *raw)
}

// printServiceMetrics fetches <service>/metrics and renders it. The pretty
// view drops the per-bucket histogram series (the _sum/_count pair stays)
// so a human sees one line per metric; -raw is the scrape body unchanged.
func printServiceMetrics(e *env, service string, raw bool) error {
	url := strings.TrimRight(service, "/") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	if raw {
		for sc.Scan() {
			fmt.Fprintln(e.stdout, sc.Text())
		}
		return sc.Err()
	}
	tw := tabwriter.NewWriter(e.stdout, 2, 8, 2, ' ', 0)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		name, value, found := strings.Cut(line, " ")
		if !found {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\n", name, value)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return tw.Flush()
}

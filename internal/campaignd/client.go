package campaignd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"github.com/soft-testing/soft/internal/obs"
)

// Client talks to a campaign service over its HTTP/JSON API. The zero
// HTTPClient means http.DefaultClient; BaseURL is the service root
// (e.g. "http://127.0.0.1:7130").
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes a JSON body into out (when non-nil),
// translating error envelopes into Go errors.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doHeader(ctx, method, path, nil, body, out)
}

// doHeader is do with extra request headers (trace propagation).
func (c *Client) doHeader(ctx context.Context, method, path string, hdr http.Header, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("campaignd client: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("campaignd client: %w", err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("campaignd client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("campaignd client: bad response body: %w", err)
	}
	return nil
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("campaignd client: %s (HTTP %d)", eb.Error, resp.StatusCode)
	}
	return fmt.Errorf("campaignd client: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// Submit submits one job and returns its durable record. A spec carrying
// a trace id is also announced via the traceparent-style header, so
// intermediaries (and the daemon's header path) see the trace context
// without parsing the body.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	var hdr http.Header
	if spec.TraceID != "" {
		if id, err := obs.ParseTraceID(spec.TraceID); err == nil {
			hdr = http.Header{"Soft-Traceparent": []string{obs.FormatTraceparent(id)}}
		}
	}
	var j Job
	if err := c.doHeader(ctx, http.MethodPost, apiPrefix+"/jobs", hdr, spec, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists jobs in submission order.
func (c *Client) Jobs(ctx context.Context) ([]*Job, error) {
	var jobs []*Job
	if err := c.do(ctx, http.MethodGet, apiPrefix+"/jobs", nil, &jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, apiPrefix+"/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel cancels a queued or running job and returns its terminal record.
// Unknown jobs and already-terminal jobs are errors (the service answers
// 404 and 409 respectively).
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodDelete, apiPrefix+"/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Report fetches a done job's canonical report bytes.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+apiPrefix+"/jobs/"+url.PathEscape(id)+"/report", nil)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	return data, nil
}

// Trace fetches a traced job's raw segment bundle (the journaled
// obs.Bundle). Callers merge it into a local tracer (obs.MergeBundle)
// or render it standalone (Bundle.WriteChromeJSON).
func (c *Client) Trace(ctx context.Context, id string) (*obs.Bundle, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+apiPrefix+"/jobs/"+url.PathEscape(id)+"/trace?format=segments", nil)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("campaignd client: %w", err)
	}
	return obs.ParseBundle(data)
}

// Metrics fetches one job's derived timing metrics (queue wait, run
// duration, restarts) as computed by the service from its journal.
func (c *Client) Metrics(ctx context.Context, id string) (*JobMetrics, error) {
	var m JobMetrics
	if err := c.do(ctx, http.MethodGet, apiPrefix+"/jobs/"+url.PathEscape(id)+"/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Status fetches daemon counters.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodGet, apiPrefix+"/status", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Watch streams a job's progress events, calling fn for each (the first
// call is always a snapshot of the current state). It returns the job's
// final record once the stream reports a terminal state, reconnecting
// through transient stream drops — the service re-snapshots on every
// connect, so no terminal transition can be missed. A nil fn just waits.
func (c *Client) Watch(ctx context.Context, id string, fn func(Event)) (*Job, error) {
	for {
		terminal, err := c.watchOnce(ctx, id, fn)
		if err != nil {
			return nil, err
		}
		if terminal {
			return c.Job(ctx, id)
		}
		// Stream dropped without a terminal event (proxy timeout, daemon
		// event-hub shutdown): poll once, and reconnect if still live.
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.terminal() {
			return j, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
}

// watchOnce consumes one SSE connection; terminal=true when the stream
// delivered a terminal event.
func (c *Client) watchOnce(ctx context.Context, id string, fn func(Event)) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+apiPrefix+"/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return false, fmt.Errorf("campaignd client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return false, fmt.Errorf("campaignd client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		data, found := strings.CutPrefix(line, "data: ")
		if !found {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return false, fmt.Errorf("campaignd client: bad event %q: %w", data, err)
		}
		if fn != nil {
			fn(ev)
		}
		if ev.State.terminal() {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return false, fmt.Errorf("campaignd client: event stream: %w", err)
	}
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	return false, nil
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"asmsim/internal/dash"
	"asmsim/internal/evtrace"
	"asmsim/internal/slo"
	"asmsim/internal/telemetry"
)

// FleetPollerOptions configures a FleetPoller. Only Targets is
// required.
type FleetPollerOptions struct {
	// Targets are the base URLs to scrape (one node each), e.g.
	// "http://node3:8080". Each must expose /metrics; /debug/asm/hist and
	// /debug/asm/attribution are scraped when present and skipped on 404.
	Targets []string
	// Interval between poll sweeps (default 2s).
	Interval time.Duration
	// Timeout bounds each HTTP request (default 2s). Ignored when Client
	// is set.
	Timeout time.Duration
	// Client overrides the poller's HTTP client (tests use the
	// httptest server's).
	Client *http.Client
	// Metrics optionally receives the poller's own health series under
	// the "fleet" scope: fleet.polls, fleet.nodes_healthy, and one
	// fleet.scrape_errors.<endpoint> counter per scraped endpoint.
	Metrics *telemetry.Registry
	// Log receives scrape failures; nil discards them.
	Log *slog.Logger
}

// FleetPoller scrapes K nodes' observability endpoints and aggregates
// them into the dash.FleetState the fleet dashboard renders. Per node
// and sweep it fetches:
//
//	GET <target>/metrics                  strict text-exposition parse
//	GET <target>/debug/asm/hist           mergeable histogram snapshots
//	GET <target>/debug/asm/attribution    latest interference matrix
//	GET <target>/debug/asm/alerts.json    SLO alert statuses
//
// The /metrics scrape uses telemetry.ParseExposition, so a node whose
// exposition drifts from the 0.0.4 format is reported broken rather
// than silently half-read. The /debug endpoints are optional: a node
// that does not mount the dashboard answers 404 and simply contributes
// no histograms, attribution or alerts.
//
// Endpoints degrade independently: one failing endpoint keeps its
// previous data (marked stale with its age in polls via
// FleetNode.Endpoints) while the others stay fresh, so a node is never
// erased from the fleet view by a single broken handler. Node health
// tracks the /metrics endpoint alone.
//
// FleetPoller implements dash.FleetSource; install it with
// Server.SetFleetSource. It runs entirely on its own goroutine and
// talks to nodes only over HTTP, so attaching it cannot perturb any
// simulation — the non-perturbation test at the repo root holds it to
// that.
type FleetPoller struct {
	opts   FleetPollerOptions
	client *http.Client
	log    *slog.Logger

	polls      atomic.Uint64
	pollsCtr   *telemetry.Counter
	scrapeErrs map[string]*telemetry.Counter // per endpoint
	healthyG   *telemetry.Gauge

	mu    sync.Mutex
	nodes []dash.FleetNode

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFleetPoller builds a poller over the given targets. Call Start to
// begin polling, or PollOnce for a single synchronous sweep.
func NewFleetPoller(opts FleetPollerOptions) *FleetPoller {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := opts.Metrics.Scope("fleet")
	p := &FleetPoller{
		opts:       opts,
		client:     client,
		log:        log,
		pollsCtr:   reg.Counter("polls"),
		scrapeErrs: map[string]*telemetry.Counter{},
		healthyG:   reg.Gauge("nodes_healthy"),
		nodes:      make([]dash.FleetNode, len(opts.Targets)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, ep := range fleetEndpoints {
		p.scrapeErrs[ep] = reg.Counter("scrape_errors." + ep)
	}
	for i, target := range opts.Targets {
		p.nodes[i] = dash.FleetNode{Node: i, URL: target, Err: "not scraped yet"}
	}
	return p
}

// Fleet implements dash.FleetSource: the latest sweep's node states,
// aggregated.
func (p *FleetPoller) Fleet() dash.FleetState {
	p.mu.Lock()
	nodes := make([]dash.FleetNode, len(p.nodes))
	copy(nodes, p.nodes)
	p.mu.Unlock()
	return dash.AggregateFleet(p.polls.Load(), nodes)
}

// PollOnce runs one synchronous sweep: every target scraped
// concurrently, results installed atomically as the new fleet view.
// Each scrape sees the node's previous state so endpoints that fail
// this sweep can retain their last data as stale.
func (p *FleetPoller) PollOnce(ctx context.Context) {
	p.mu.Lock()
	prev := make([]dash.FleetNode, len(p.nodes))
	copy(prev, p.nodes)
	p.mu.Unlock()
	fresh := make([]dash.FleetNode, len(p.opts.Targets))
	var wg sync.WaitGroup
	for i, target := range p.opts.Targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			fresh[i] = p.scrape(ctx, i, target, prev[i])
		}(i, target)
	}
	wg.Wait()
	healthy := 0
	for _, n := range fresh {
		if n.Healthy {
			healthy++
		}
	}
	p.mu.Lock()
	p.nodes = fresh
	p.mu.Unlock()
	p.polls.Add(1)
	p.pollsCtr.Inc()
	p.healthyG.Set(int64(healthy))
}

// Start launches the poll loop (idempotent). The first sweep runs
// immediately, then every Interval until Stop.
func (p *FleetPoller) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			ctx := context.Background()
			p.PollOnce(ctx)
			tick := time.NewTicker(p.opts.Interval)
			defer tick.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-tick.C:
					p.PollOnce(ctx)
				}
			}
		}()
	})
}

// Stop ends the poll loop and waits for it to exit. Safe to call more
// than once, and before Start (the loop then never runs).
func (p *FleetPoller) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.startOnce.Do(func() { close(p.done) })
	<-p.done
}

// fleetEndpoints names the per-node scrape endpoints, in scrape order.
var fleetEndpoints = []string{"metrics", "hist", "attribution", "alerts"}

// errNotMounted distinguishes "node answers 404" (the endpoint is
// optional and simply absent) from a real scrape failure.
var errNotMounted = fmt.Errorf("not mounted")

// scrape fetches one node's endpoints, each degrading independently: a
// failing endpoint keeps the previous poll's data (marked stale, with
// its age counted in polls) while the others refresh. A /metrics
// failure (transport, status, or format) marks the node unhealthy; the
// /debug endpoints are optional (404 means "not mounted") but any other
// failure there is a visible scrape error — a node that mounts an
// endpoint and then breaks it should be seen, not quietly stale.
func (p *FleetPoller) scrape(ctx context.Context, i int, target string, prev dash.FleetNode) dash.FleetNode {
	node := dash.FleetNode{Node: i, URL: target, Endpoints: map[string]dash.EndpointHealth{}}
	// mark records one endpoint's health. An endpoint the node does not
	// mount (no dashboard) is fresh: nothing to merge, not an error. A
	// failure counts the data's staleness; the previous poll's data
	// stays.
	mark := func(ep string, err error) {
		if err == nil || err == errNotMounted {
			node.Endpoints[ep] = dash.EndpointHealth{OK: true}
			return
		}
		stale := prev.Endpoints[ep].StalePolls + 1
		node.Endpoints[ep] = dash.EndpointHealth{Err: err.Error(), StalePolls: stale}
		p.scrapeErrs[ep].Inc()
		p.log.Warn("fleet scrape degraded", "node", i, "target", target,
			"endpoint", ep, "err", err, "stale_polls", stale)
	}

	samples, err := p.scrapeMetrics(ctx, target)
	mark("metrics", err)
	if err != nil {
		node.Err = err.Error()
		node.Samples = prev.Samples
		node.Queued, node.Running = prev.Queued, prev.Running
	} else {
		node.Healthy = true
		node.Samples = samples
		node.Queued = int64(samples["serve_queued"])
		node.Running = int64(samples["serve_running"])
	}

	node.Hist, err = scrapeOptional(ctx, p, target+"/debug/asm/hist", prev.Hist,
		func(body []byte) (h map[string]telemetry.HistogramSnapshot, err error) {
			err = json.Unmarshal(body, &h)
			return h, err
		})
	mark("hist", err)
	node.Attribution, err = scrapeOptional(ctx, p, target+"/debug/asm/attribution", prev.Attribution,
		func(body []byte) (*evtrace.QuantumAttribution, error) {
			e, err := decodeDashBody(body)
			return e.Attribution, err
		})
	mark("attribution", err)
	node.Alerts, err = scrapeOptional(ctx, p, target+"/debug/asm/alerts.json", prev.Alerts,
		func(body []byte) ([]slo.AlertStatus, error) {
			e, err := decodeDashBody(body)
			return e.Alerts, err
		})
	mark("alerts", err)
	return node
}

// scrapeMetrics fetches and strictly parses <target>/metrics.
func (p *FleetPoller) scrapeMetrics(ctx context.Context, target string) (map[string]float64, error) {
	body, status, err := p.get(ctx, target+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s/metrics: status %d", target, status)
	}
	samples, err := telemetry.ParseExposition(string(body))
	if err != nil {
		return nil, fmt.Errorf("fleet: %s/metrics: %w", target, err)
	}
	return samples, nil
}

// scrapeOptional fetches one optional endpoint and decodes its body. A
// node that answers 404 does not mount it and has nothing to merge: the
// zero T and errNotMounted. Any other failure keeps prev, the previous
// poll's value.
func scrapeOptional[T any](ctx context.Context, p *FleetPoller, url string, prev T, decode func([]byte) (T, error)) (T, error) {
	var v T
	body, status, err := p.get(ctx, url)
	switch {
	case err != nil:
	case status == http.StatusNotFound:
		return v, errNotMounted
	case status != http.StatusOK:
		err = fmt.Errorf("fleet: %s: status %d", url, status)
	default:
		if v, err = decode(body); err != nil {
			err = fmt.Errorf("fleet: %s: %w", url, err)
		}
	}
	if err != nil {
		return prev, err
	}
	return v, nil
}

// dashBody is the body of the dashboard's attribution and alerts
// endpoints: each carries one payload field, meaningful only when
// Present.
type dashBody struct {
	Present     bool                        `json:"present"`
	Attribution *evtrace.QuantumAttribution `json:"attribution"`
	Alerts      []slo.AlertStatus           `json:"alerts"`
}

// decodeDashBody decodes a dashBody, zero unless Present.
func decodeDashBody(body []byte) (e dashBody, err error) {
	if err = json.Unmarshal(body, &e); !e.Present {
		e = dashBody{}
	}
	return e, err
}

// get fetches one URL, returning the body and status. Transport errors
// come back as errors; HTTP errors come back as the status for the
// caller to classify.
func (p *FleetPoller) get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %s: %w", url, err)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %s: read body: %w", url, err)
	}
	return body, resp.StatusCode, nil
}

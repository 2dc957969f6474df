package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// sloSpec is the deliberately tight bound: mcf vs libquantum on one
// channel pushes actual slowdowns well past 1.5, so every quantum is a
// bad tick and the 6/2-quantum window pair crosses burn 2 as soon as
// the short window fills.
const sloSpec = `{"slos":[
  {"name":"qos-bound","signal":"qos","bound":1.5,
   "windows":[{"long":6,"short":2,"burn":2}],
   "pending_ticks":1,"resolve_ticks":2}
]}`

var sloMixArgs = []string{
	"-apps", "mcf,libquantum",
	"-quantum", "200000",
	"-groundtruth",
}

// runSLO is the SLO alerting smoke: it drives a deliberately contended
// two-app mix against a slowdown bound tight enough that the QoS alert
// must fire, and checks every surface the alert is promised on. The live
// phase launches asmsim with the dashboard, polls /debug/asm/alerts.json
// until the bound violation pages, scrapes /metrics for the slo_*
// families, then SIGINTs the child (the dash smoke's teardown contract)
// and checks the firing alert dumped the flight ring. The trace phase
// re-runs the same mix to natural completion with -trace, so the tracer
// closes cleanly and the emitted file — which `make slo-smoke` then
// hands to tracesum -check — carries the slo: alert instants.
func runSLO(bin, out string, deadline time.Time) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	specPath := filepath.Join(out, "slo-smoke.spec.json")
	if err := os.WriteFile(specPath, []byte(sloSpec), 0o644); err != nil {
		return err
	}
	if err := sloLivePhase(bin, out, specPath, deadline); err != nil {
		return fmt.Errorf("live phase: %w", err)
	}
	if err := sloTracePhase(bin, out, specPath, deadline); err != nil {
		return fmt.Errorf("trace phase: %w", err)
	}
	return nil
}

// sloLivePhase drives the dashboard surfaces: alerts.json must reach
// firing, /metrics must carry the three slo_* families, and the SIGINT
// teardown must leave a flight dump for the firing alert.
func sloLivePhase(bin, out, specPath string, deadline time.Time) error {
	flightDir := filepath.Join(out, "flight")
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		return err
	}
	args := append([]string{}, sloMixArgs...)
	args = append(args,
		"-quanta", "1000000", // far beyond the smoke window; SIGINT ends it
		"-dash", "127.0.0.1:0",
		"-slo", specPath,
		"-slo-flight", flightDir,
	)
	c, err := spawn(bin, "asmsim", dashBanner, io.Discard, args...)
	if err != nil {
		return err
	}
	defer c.kill()

	if err := waitFiring(c.base+"/debug/asm/alerts.json", deadline); err != nil {
		return err
	}
	fmt.Println("  alerts.json  firing")
	if err := checkPromSeries(c.base + "/metrics"); err != nil {
		return err
	}
	fmt.Println("  /metrics     slo_* families present")
	if err := c.stop(syscall.SIGINT, false); err != nil {
		return err
	}

	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-*-slo-qos-bound.json"))
	if err != nil {
		return err
	}
	if len(dumps) == 0 {
		return fmt.Errorf("no flight-recorder dump in %s after the alert fired", flightDir)
	}
	if fi, err := os.Stat(dumps[0]); err != nil || fi.Size() == 0 {
		return fmt.Errorf("flight dump %s empty or unreadable: %v", dumps[0], err)
	}
	fmt.Printf("  flight dump  %s\n", filepath.Base(dumps[0]))
	return nil
}

// waitFiring polls the alert endpoint until the qos alert reaches
// firing. The bound is violated from the first quantum, so anything but
// a steady march to firing inside the deadline is a bug.
func waitFiring(url string, deadline time.Time) error {
	var last []byte
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				last = body
				var page struct {
					Alerts []struct {
						Name  string `json:"name"`
						State string `json:"state"`
					} `json:"alerts"`
				}
				if err := json.Unmarshal(body, &page); err != nil {
					return fmt.Errorf("alerts.json is not JSON: %w", err)
				}
				for _, a := range page.Alerts {
					if a.Name == "qos-bound" && a.State == "firing" {
						return nil
					}
				}
			}
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("qos-bound never fired before deadline; last alerts.json: %s", last)
}

// checkPromSeries scrapes /metrics once and requires every promised SLO
// family. The alert is already firing, so the firing counter must be a
// live sample, not just a declared family.
func checkPromSeries(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)
	for _, want := range []string{
		`slo_error_budget_remaining{slo="qos-bound"}`,
		`slo_burn_rate{slo="qos-bound"}`,
		`slo_alerts_total{state="firing"}`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/metrics is missing %s", want)
		}
	}
	return nil
}

// sloTracePhase re-runs the mix to natural completion with tracing on:
// the tracer closes through the normal exit path, and the file must
// carry the slo: alert instants (schema validation is tracesum -check's
// job, run by the make target on this same file).
func sloTracePhase(bin, out, specPath string, deadline time.Time) error {
	tracePath := filepath.Join(out, "slo-smoke.trace.json")
	args := append([]string{}, sloMixArgs...)
	args = append(args,
		"-quanta", "8",
		"-trace", tracePath,
		"-slo", specPath,
		"-slo-flight", filepath.Join(out, "flight-trace"),
	)
	cmd := exec.Command(bin, args...)
	outBuf := &strings.Builder{}
	cmd.Stdout = outBuf
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			return fmt.Errorf("trace run failed: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("trace run did not finish before deadline")
	}
	if !strings.Contains(outBuf.String(), "qos-bound") {
		return fmt.Errorf("trace run printed no SLO summary:\n%s", outBuf)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(trace), `"slo:qos-bound"`) {
		return fmt.Errorf("trace %s carries no slo:qos-bound alert instants", tracePath)
	}
	fmt.Printf("  trace        %s has alert instants\n", filepath.Base(tracePath))
	return nil
}

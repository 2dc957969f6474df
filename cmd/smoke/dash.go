package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// dashBanner is the line asmsim prints once its dashboard listens.
var dashBanner = regexp.MustCompile(`dashboard listening on http://(\S+)/debug/asm/`)

// runDash is the live-dashboard smoke: it launches a real asmsim run
// with -dash, -trace and -telemetry, exercises every /debug/asm/*
// endpoint — validating JSON shapes and one complete SSE quantum frame —
// and the pprof index the same listener serves, then interrupts the
// child, checks it tears down promptly, and checks that it flushed its
// trace and metrics on the way out. The child is
// given far more quanta than the smoke needs; the run's
// context-cancellation exit on SIGINT is the expected teardown path.
func runDash(bin, _ string, deadline time.Time) error {
	dir, err := os.MkdirTemp("", "dash-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "dash.trace.json")
	c, err := spawn(bin, "asmsim", dashBanner, io.Discard,
		"-apps", "mcf,libquantum",
		"-quanta", "1000000", // far beyond the smoke window; SIGINT ends it
		"-quantum", "200000",
		"-groundtruth",
		"-dash", "127.0.0.1:0",
		"-trace", tracePath,
		"-telemetry", dir,
	)
	if err != nil {
		return err
	}
	defer c.kill()
	base := c.base + "/debug/asm"

	checks := []struct {
		name string
		fn   func(string, time.Time) error
	}{
		{"index", checkIndex},
		{"metrics", checkDashMetrics},
		{"progress", checkProgress},
		{"attribution", checkAttribution},
		{"quanta SSE", checkQuantaSSE},
	}
	for _, ck := range checks {
		if err := step(ck.name, ck.fn(base, deadline)); err != nil {
			return err
		}
	}
	if err := step("pprof", checkPprof(c.base)); err != nil {
		return err
	}
	if err := c.stop(syscall.SIGINT, false); err != nil {
		return err
	}
	return step("flush", checkFlushed(tracePath, dir))
}

// checkFlushed requires the interrupted run's observer outputs to be
// whole: the trace is valid JSON and the telemetry directory holds
// metrics.jsonl.
func checkFlushed(tracePath, telDir string) error {
	b, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	if !json.Valid(b) {
		return fmt.Errorf("trace %s is not valid JSON", filepath.Base(tracePath))
	}
	_, err = os.Stat(filepath.Join(telDir, "metrics.jsonl"))
	return err
}

func checkIndex(base string, _ time.Time) error {
	body, err := getOK(base + "/")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "<!DOCTYPE html>") {
		return fmt.Errorf("index page is not the embedded dashboard")
	}
	return nil
}

// checkPprof requires the -dash listener at base to serve the pprof
// index: it is the process's only pprof listener.
func checkPprof(base string) error {
	body, err := getOK(base + "/debug/pprof/")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "goroutine") {
		return fmt.Errorf("pprof index lists no goroutine profile")
	}
	return nil
}

// getOK fetches url and returns its body, failing unless it answers 200.
func getOK(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func checkDashMetrics(base string, _ time.Time) error {
	var m struct {
		Metrics []json.RawMessage `json:"metrics"`
		Dash    json.RawMessage   `json:"dash"`
	}
	if err := getJSON(base+"/metrics", &m); err != nil {
		return err
	}
	if len(m.Metrics) == 0 {
		return fmt.Errorf("no metrics registered (sim.* counters missing)")
	}
	if m.Dash == nil {
		return fmt.Errorf("no dash stats block")
	}
	return nil
}

func checkProgress(base string, _ time.Time) error {
	var p struct {
		Progress json.RawMessage `json:"progress"`
	}
	if err := getJSON(base+"/progress", &p); err != nil {
		return err
	}
	if p.Progress == nil {
		return fmt.Errorf("no progress block")
	}
	return nil
}

// checkAttribution polls until the first quantum completes and the
// endpoint carries a real victim×cause matrix.
func checkAttribution(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		var a struct {
			Present     bool `json:"present"`
			Attribution *struct {
				Apps []string    `json:"apps"`
				Mem  [][]float64 `json:"mem"`
			} `json:"attribution"`
		}
		if err := getJSON(base+"/attribution", &a); err != nil {
			return err
		}
		if a.Present {
			if a.Attribution == nil || len(a.Attribution.Apps) != 2 || len(a.Attribution.Mem) != 2 {
				return fmt.Errorf("present but malformed: %+v", a.Attribution)
			}
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("no attribution before deadline")
}

// checkQuantaSSE reads the stream until one complete quantum frame
// arrives and its data payload decodes as a telemetry record.
func checkQuantaSSE(base string, deadline time.Time) error {
	client := &http.Client{Timeout: time.Until(deadline)}
	resp, err := client.Get(base + "/quanta")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		return fmt.Errorf("content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	inQuantum := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: quantum" {
			inQuantum = true
			continue
		}
		if inQuantum && strings.HasPrefix(line, "data: ") {
			var rec struct {
				App   *int   `json:"app"`
				Bench string `json:"bench"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &rec); err != nil {
				return fmt.Errorf("quantum frame is not JSON: %w", err)
			}
			if rec.App == nil || rec.Bench == "" {
				return fmt.Errorf("quantum frame missing app/bench: %s", line)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream ended: %w", err)
	}
	return fmt.Errorf("stream closed before a quantum frame")
}

// Command smoke holds the CI smoke tests that drive a real binary from
// outside: each spawns the child, scrapes its bound address from the
// stderr banner, exercises its HTTP surfaces, signals it and requires a
// prompt exit of the expected kind.
//
// Usage:
//
//	go build -o /tmp/asmsim ./cmd/asmsim
//	go build -o /tmp/asmserve ./cmd/asmserve
//	go run ./cmd/smoke dash -bin /tmp/asmsim
//	go run ./cmd/smoke serve -bin /tmp/asmserve
//	go run ./cmd/smoke slo -bin /tmp/asmsim -out /tmp/slo-smoke
//
// dash drives the live dashboard, serve the job service, slo the SLO
// alerting path; see each mode's file for what it checks. The make
// targets dash-smoke, serve-smoke and slo-smoke run them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// modes maps each smoke to its default deadline and body.
var modes = map[string]struct {
	timeout time.Duration
	run     func(bin, out string, deadline time.Time) error
}{
	"dash":  {60 * time.Second, runDash},
	"serve": {120 * time.Second, runServe},
	"slo":   {90 * time.Second, runSLO},
}

func main() {
	mode, ok := modes[strings.Join(os.Args[1:2], "")]
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: smoke dash|serve|slo -bin /path/to/binary [-out dir (slo)]")
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	bin := fs.String("bin", "", "path to the built binary under test (required)")
	out := fs.String("out", "", "slo: artifact directory for the spec, flight dumps and trace (required; created if missing)")
	timeout := fs.Duration("timeout", mode.timeout, "overall smoke deadline")
	fs.Parse(os.Args[2:])
	if *bin == "" || (name == "slo" && *out == "") {
		fs.Usage()
		os.Exit(2)
	}
	if err := mode.run(*bin, *out, time.Now().Add(*timeout)); err != nil {
		fmt.Fprintf(os.Stderr, "%s-smoke: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s-smoke: OK\n", name)
}

// child is one spawned binary under test with its scraped base URL.
type child struct {
	cmd  *exec.Cmd
	base string
}

// spawn starts bin with args, echoes its stderr as "  [tag] ..." lines
// (draining the pipe for the child's whole life, so it never blocks on a
// full buffer) and waits up to 10s for the banner line banner matches;
// the banner's first group is the bound address.
func spawn(bin, tag string, banner *regexp.Regexp, stdout io.Writer, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "  [%s] %s\n", tag, line)
			if m := banner.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &child{cmd: cmd, base: "http://" + addr}, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("child never advertised its address")
	}
}

// kill ends the child unconditionally; deferred by every smoke so no
// child outlives it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// stop sends sig and waits for the exit (see wait).
func (c *child) stop(sig syscall.Signal, clean bool) error {
	if err := c.cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("signal child: %w", err)
	}
	return c.wait(sig, clean)
}

// wait requires the child to exit within 15s of sig. With clean the exit
// must be 0 (asmserve drains and exits 0 on SIGTERM); otherwise any
// ordinary exit passes (asmsim reports its cancelled run and exits
// non-zero on SIGINT) but death by signal does not.
func (c *child) wait(sig syscall.Signal, clean bool) error {
	waitCh := make(chan error, 1)
	go func() { waitCh <- c.cmd.Wait() }()
	select {
	case err := <-waitCh:
		var exit *exec.ExitError
		switch {
		case err == nil:
			return nil
		case clean:
			return fmt.Errorf("child exited non-zero after %v: %v", sig, err)
		case errors.As(err, &exit) && exit.ExitCode() > 0:
			return nil
		}
		return fmt.Errorf("child exited abnormally: %v", err)
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill()
		c.cmd.Wait()
		return fmt.Errorf("child did not exit within 15s of %v", sig)
	}
}

// step prints name's check line when err is nil, and otherwise returns
// err wrapped with name.
func step(name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("  %-12s ok\n", name)
	return nil
}

// getJSON fetches url, requiring 200 and a JSON content type, and
// decodes the body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("content-type %q", ct)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Progress reports live sweep status (items done/total, ETA, the item
// currently running, failures so far) as plain lines, rate-limited so a
// thousand-item sweep does not flood the terminal. It is written to
// stderr by the CLIs so machine-parseable stdout stays clean. All
// methods are safe for concurrent use and no-ops on a nil *Progress.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string

	total, done, failed int
	current             map[string]bool // items running right now
	start               time.Time
	lastPrint           time.Time
	minInterval         time.Duration

	// now is stubbed in tests.
	now func() time.Time
}

// NewProgress reports to w under the given label (e.g. the experiment
// id). Updates print at most every interval (0 selects one second);
// item failures and Finish always print.
func NewProgress(w io.Writer, label string, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{
		w:           w,
		label:       label,
		current:     map[string]bool{},
		minInterval: interval,
		now:         time.Now,
	}
}

// Add grows the expected item total by n (sweeps register their item
// counts as they start).
func (p *Progress) Add(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = p.now()
	}
	p.total += n
}

// StartItem marks an item as running.
func (p *Progress) StartItem(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = p.now()
	}
	p.current[name] = true
}

// DoneItem marks an item finished (err non-nil counts it as failed,
// which fails the sweep) and prints a rate-limited status line. Failures
// always print.
func (p *Progress) DoneItem(name string, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.current, name)
	p.done++
	if err != nil {
		p.failed++
		fmt.Fprintf(p.w, "%s: FAILED %s: %v\n", p.label, name, err)
	}
	p.maybePrint(err != nil)
}

// Finish prints the final summary line unconditionally.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maybePrint(true)
}

// maybePrint emits a status line, honoring the rate limit unless
// force is set. Callers hold p.mu.
func (p *Progress) maybePrint(force bool) {
	now := p.now()
	if !force && now.Sub(p.lastPrint) < p.minInterval {
		return
	}
	p.lastPrint = now
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d done", p.label, p.done, p.total)
	if p.failed > 0 {
		fmt.Fprintf(&b, ", %d failed", p.failed)
	}
	if eta := p.eta(now); eta > 0 {
		fmt.Fprintf(&b, ", eta %s", eta.Round(time.Second))
	}
	if running := p.running(); running != "" {
		fmt.Fprintf(&b, ", running %s", running)
	}
	fmt.Fprintln(p.w, b.String())
}

// ProgressState is a point-in-time snapshot of a sweep's progress,
// consumable by observers beyond the stderr line printer (the live
// dashboard's /debug/asm/progress endpoint serves it as JSON).
type ProgressState struct {
	Label     string   `json:"label"`
	Total     int      `json:"total"`
	Done      int      `json:"done"`
	Failed    int      `json:"failed"`
	Running   []string `json:"running,omitempty"` // sorted item names
	ElapsedNs int64    `json:"elapsed_ns"`
	ETANs     int64    `json:"eta_ns"` // 0 when not extrapolatable
}

// State snapshots the sweep's progress. A nil *Progress snapshots zero.
func (p *Progress) State() ProgressState {
	if p == nil {
		return ProgressState{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	st := ProgressState{
		Label:  p.label,
		Total:  p.total,
		Done:   p.done,
		Failed: p.failed,
		ETANs:  int64(p.eta(now)),
	}
	if !p.start.IsZero() {
		st.ElapsedNs = int64(now.Sub(p.start))
	}
	for name := range p.current {
		st.Running = append(st.Running, name)
	}
	sort.Strings(st.Running)
	return st
}

// eta extrapolates the remaining wall time from the pace so far.
func (p *Progress) eta(now time.Time) time.Duration {
	if p.done == 0 || p.done >= p.total || p.start.IsZero() {
		return 0
	}
	elapsed := now.Sub(p.start)
	return time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
}

// running names one in-flight item (with a +k suffix when several run).
func (p *Progress) running() string {
	if len(p.current) == 0 {
		return ""
	}
	for name := range p.current {
		if len(p.current) > 1 {
			return fmt.Sprintf("%s (+%d more)", name, len(p.current)-1)
		}
		return name
	}
	return ""
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	if s := r.Scope("x"); s != nil {
		t.Fatal("nil registry scope must stay nil")
	}
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("g")
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	tm := r.Timer("t")
	tm.Observe(time.Second)
	tm.Start()()
	if tm.Count() != 0 || tm.Total() != 0 || tm.Mean() != 0 || tm.Max() != 0 {
		t.Fatal("nil timer must stay zero")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatal("nil registry must snapshot empty")
	}
	var p *Progress
	p.Add(1)
	p.StartItem("a")
	p.DoneItem("a", nil)
	p.Finish()
	var prof *Profiler
	if err := prof.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("quanta").Add(2)
	sim := r.Scope("sim")
	sim.Counter("quanta").Add(5)
	sim.Scope("deep").Gauge("depth").Set(-3)
	tm := r.Timer("wall")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)

	if got := r.Counter("quanta").Value(); got != 2 {
		t.Fatalf("root counter %d", got)
	}
	if got := sim.Counter("quanta").Value(); got != 5 {
		t.Fatalf("scoped counter %d", got)
	}
	if tm.Mean() != 20*time.Millisecond || tm.Max() != 30*time.Millisecond {
		t.Fatalf("timer mean %v max %v", tm.Mean(), tm.Max())
	}

	snap := r.Snapshot()
	byName := map[string]Metric{}
	for i, m := range snap {
		byName[m.Name] = m
		if i > 0 && snap[i-1].Name >= m.Name {
			t.Fatalf("snapshot not sorted: %q >= %q", snap[i-1].Name, m.Name)
		}
	}
	if byName["sim.quanta"].Value != 5 || byName["sim.deep.depth"].Value != -3 {
		t.Fatalf("snapshot %v", byName)
	}
	if w := byName["wall"]; w.Kind != "timer" || w.Value != 2 || w.TotalNs != int64(40*time.Millisecond) {
		t.Fatalf("timer metric %+v", w)
	}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range nonEmptyLines(buf.String()) {
		var m Metric
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Gauge("depth").Set(int64(i))
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("counter %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("timer count %d, want 8000", got)
	}
}

func sampleRecord() *QuantumRecord {
	return &QuantumRecord{
		Mix:     "mcf,libquantum",
		App:     1,
		Bench:   "libquantum",
		Quantum: 3,
		Actual:  2.25,
		Estimates: map[string]float64{
			"ASM": 2.1, "FST": 2.9,
		},
		Counters: AppCounters{
			Retired:         12345,
			L2Accesses:      100,
			L2Misses:        40,
			MemInterfCycles: 1234.5,
		},
	}
}

func TestJSONLRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONLRecorder(&buf)
	want := sampleRecord()
	rec.Record(want)
	rec.Record(sampleRecord())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(buf.String())
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var got QuantumRecord
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Mix != want.Mix || got.App != want.App || got.Quantum != want.Quantum ||
		got.Actual != want.Actual || got.Estimates["ASM"] != 2.1 ||
		got.Counters.Retired != 12345 || got.Counters.MemInterfCycles != 1234.5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestJSONLRecorderStickyError(t *testing.T) {
	rec := NewJSONLRecorder(failingWriter{})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer to force a write
		rec.Record(sampleRecord())
	}
	if err := rec.Close(); err == nil {
		t.Fatal("write error must surface at Close")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	p := NewProgress(&buf, "fig2", time.Millisecond)
	p.now = func() time.Time { return clock }
	p.Add(4)
	p.StartItem("mix1")
	clock = clock.Add(time.Second)
	p.DoneItem("mix1", nil)
	p.StartItem("mix2")
	clock = clock.Add(time.Second)
	p.DoneItem("mix2", errors.New("boom"))
	p.Finish()
	out := buf.String()
	for _, want := range []string{"fig2: 1/4 done", "LOST mix2: boom", "2/4 done, 1 lost", "eta"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestProgressRateLimit(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	p := NewProgress(&buf, "x", time.Hour)
	p.now = func() time.Time { return clock }
	p.Add(100)
	for i := 0; i < 100; i++ {
		name := fmt.Sprint(i)
		p.StartItem(name)
		clock = clock.Add(time.Millisecond)
		p.DoneItem(name, nil)
	}
	// Only the first status line beats the rate limit.
	if n := len(nonEmptyLines(buf.String())); n != 1 {
		t.Fatalf("%d status lines for 100 quiet items, want 1", n)
	}
	p.Finish()
	if !strings.Contains(buf.String(), "100/100 done") {
		t.Fatalf("final summary missing:\n%s", buf.String())
	}
}

func TestProfilerCPUAndMem(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	p, err := StartProfiler(cpu, mem, "")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if data := mustRead(t, path); len(data) == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
	if err := p.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestProfilerPprofServer(t *testing.T) {
	p, err := StartProfiler("", "", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	defer p.Stop()
	addr := p.PprofAddr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof index status %d body %q", resp.StatusCode, body)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Fatal("server still up after Stop")
	}
}

func TestProfilerDisabled(t *testing.T) {
	p, err := StartProfiler("", "", "")
	if err != nil || p != nil {
		t.Fatalf("disabled profiler: %v %v", p, err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJSONLRecorderConcurrentWriters(t *testing.T) {
	// Sweep workers share one recorder: under contention every record must
	// still land as one whole line that decodes back to what was recorded.
	const writers, perWriter = 8, 50
	var buf bytes.Buffer
	rec := NewJSONLRecorder(&buf)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := sampleRecord()
				r.App = w
				r.Quantum = i
				rec.Record(r)
			}
		}(w)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != writers*perWriter {
		t.Fatalf("%d lines, want %d", len(lines), writers*perWriter)
	}
	seen := map[[2]int]bool{}
	for n, line := range lines {
		var got QuantumRecord
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not a whole JSON object: %v\n%s", n, err, line)
		}
		want := sampleRecord()
		want.App, want.Quantum = got.App, got.Quantum
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("line %d does not round-trip:\ngot  %+v\nwant %+v", n, got, *want)
		}
		key := [2]int{got.App, got.Quantum}
		if got.App < 0 || got.App >= writers || got.Quantum < 0 || got.Quantum >= perWriter || seen[key] {
			t.Fatalf("line %d: unexpected or repeated (app, quantum) %v", n, key)
		}
		seen[key] = true
	}
}

func TestRegistrySnapshotUnderConcurrentWriters(t *testing.T) {
	// Snapshot (and WriteJSONL, which uses it) must be safe while writers
	// are mutating and creating metrics — the race detector enforces the
	// "no torn reads" half; consistency of the final state the rest.
	r := NewRegistry()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sc := r.Scope(fmt.Sprintf("w%d", w))
			for i := 0; i < 2000; i++ {
				sc.Counter("ops").Inc()
				sc.Gauge("depth").Set(int64(i))
				sc.Timer("lat").Observe(time.Microsecond)
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, m := range r.Snapshot() {
				if m.Name == "" {
					t.Error("snapshot metric without a name")
					return
				}
			}
			if err := r.WriteJSONL(io.Discard); err != nil {
				t.Errorf("WriteJSONL: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	for w := 0; w < 4; w++ {
		if got := r.Scope(fmt.Sprintf("w%d", w)).Counter("ops").Value(); got != 2000 {
			t.Fatalf("w%d ops = %d, want 2000", w, got)
		}
	}
}

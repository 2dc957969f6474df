package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"asmsim/internal/exp"
)

func TestJournalAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, entries, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	spec := tinySpec(1)
	for _, e := range []Entry{
		{Event: evSubmitted, ID: "job-1", Fingerprint: "fp1", Spec: &spec},
		{Event: evStarted, ID: "job-1", Fingerprint: "fp1"},
		{Event: evDone, ID: "job-1", Fingerprint: "fp1"},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if got[0].Spec == nil || !reflect.DeepEqual(*got[0].Spec, spec) {
		t.Fatalf("spec did not round-trip: %+v", got[0].Spec)
	}
	if !got[2].terminal() || got[1].terminal() {
		t.Fatal("terminal classification wrong")
	}
	// Reopen: sequence numbers continue past the existing log.
	j2, entries, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 3 || j2.Seq() != 3 {
		t.Fatalf("reopen: %d entries, seq %d", len(entries), j2.Seq())
	}
	if err := j2.Append(Entry{Event: evCancelled, ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 4 {
		t.Fatalf("seq after reopen append = %d, want 4", j2.Seq())
	}
}

// TestJournalTruncatedTail: a crash can cut the final line short; the
// reader keeps everything before it.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Entry{Event: evSubmitted, ID: "job-1"})
	j.Append(Entry{Event: evStarted, ID: "job-1"})
	j.Close()
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"event":"done","id":"jo`) // torn write
	f.Close()
	got, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d entries past torn tail, want 2", len(got))
	}
	j2, entries, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 2 {
		t.Fatalf("reopen read %d entries", len(entries))
	}
}

// TestJournalReopenCutsTornTail: a journal reopened over a torn tail
// cuts it off, so entries appended after every restart stay readable.
// A whole entry whose newline was lost is torn too: left in place, the
// next append would run on from it.
func TestJournalReopenCutsTornTail(t *testing.T) {
	for _, torn := range []string{`{"seq":2,"event":"sta`, `{"seq":2,"event":"submitted","id":"job-x"}`} {
		dir := t.TempDir()
		j, _, err := OpenJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Entry{Event: evSubmitted, ID: "job-1"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(torn)
		f.Close()
		for _, id := range []string{"job-2", "job-3"} {
			j, _, err := OpenJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(Entry{Event: evSubmitted, ID: id}); err != nil {
				t.Fatal(err)
			}
			j.Close()
		}
		got, err := ReadJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		if want := []string{"job-1", "job-2", "job-3"}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("torn tail %q, then two restarts: journal holds %v, want %v", torn, ids, want)
		}
	}
}

// journalLines renders entries as Append writes them: one JSON object
// per line.
func journalLines(t testing.TB, entries []Entry) []byte {
	var buf bytes.Buffer
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// FuzzJournalReplay: whatever bytes journal.jsonl holds, ReadJournal and
// OpenJournal never panic and agree; n whole entries followed by a torn
// or garbled tail replay as exactly those n entries; and a journal
// reopened over that tail appends an entry the next replay reads right
// after them. Seeded with the round-trip and torn-tail tests' journals
// and an older journal's started line.
func FuzzJournalReplay(f *testing.F) {
	spec := tinySpec(1)
	whole := journalLines(f, []Entry{
		{Seq: 1, Event: evSubmitted, ID: "job-1", Fingerprint: "fp1", Spec: &spec},
		{Seq: 2, Event: evStarted, ID: "job-1", Fingerprint: "fp1"},
		{Seq: 3, Event: evDone, ID: "job-1", Fingerprint: "fp1"},
	})
	torn := []byte(`{"seq":3,"event":"done","id":"jo`)
	f.Add(whole, uint8(3), []byte(nil))
	f.Add(append(whole[:len(whole):len(whole)], torn...), uint8(2), torn)
	f.Add([]byte("\n{}\n"), uint8(0), []byte("not json\n{\"seq\":9}\n"))
	f.Add([]byte(v0SubmittedWithFaults+"\n"), uint8(1), []byte(nil))
	f.Add([]byte(v1SubmittedWithRunTimeout+"\n"), uint8(1), []byte(nil))
	f.Add([]byte(v1SubmittedWithRunTimeout+"\n"+v2StartedWithAttempt+"\n"), uint8(2), []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		read, rerr := ReadJournal(dir)
		j, opened, oerr := OpenJournal(dir, nil)
		if (rerr == nil) != (oerr == nil) || (oerr == nil && !reflect.DeepEqual(read, opened)) {
			t.Fatalf("ReadJournal (%d entries, %v) and OpenJournal (%d entries, %v) disagree",
				len(read), rerr, len(opened), oerr)
		}
		j.Close()

		line, _, _ := bytes.Cut(tail, []byte("\n"))
		if json.Unmarshal(bytes.TrimSuffix(line, []byte("\r")), new(Entry)) == nil {
			return // the tail starts with a whole entry, not a torn one
		}
		spec := tinySpec(uint64(n))
		events := []string{evSubmitted, evStarted, evDone, evFailed, evCancelled}
		var prefix []Entry
		for i := 0; i < int(n%16); i++ {
			e := Entry{Seq: uint64(i + 1), Event: events[i%len(events)], ID: fmt.Sprintf("job-%d", i/len(events)+1)}
			if e.Event == evSubmitted {
				e.Spec = &spec
			}
			prefix = append(prefix, e)
		}
		if err := os.WriteFile(journalPath(dir), append(journalLines(t, prefix), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, prefix) {
			t.Fatalf("tail %q: replayed %d entries, want the %d before it", tail, len(got), len(prefix))
		}

		j, _, err = OpenJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		next := Entry{Event: evCancelled, ID: "job-next"}
		err = j.Append(next)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		next.Seq = uint64(len(prefix) + 1)
		if got, err = ReadJournal(dir); err != nil || !reflect.DeepEqual(got, append(prefix, next)) {
			t.Fatalf("tail %q: after reopen and one append, replayed %d entries (%v), want the %d before it plus the append",
				tail, len(got), err, len(prefix))
		}
	})
}

// swapJournalFile puts f in place of j's file under j's lock and
// returns the file it replaced. Swapping in a read-only handle on the
// journal's own path makes every append fail with a real write error
// until the writable handle is swapped back.
func swapJournalFile(j *Journal, f *os.File) *os.File {
	j.mu.Lock()
	defer j.mu.Unlock()
	old := j.f
	j.f = f
	return old
}

// TestJournalWriteFailureConsumesSeq: a failed journal write fails that
// append only; the next append gets a fresh sequence number, so one
// poisoned seq cannot wedge the log.
func TestJournalWriteFailureConsumesSeq(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ro, err := os.Open(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w := swapJournalFile(j, ro)
	if err := j.Append(Entry{Event: evSubmitted, ID: "job-1"}); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if j.Seq() != 1 || j.Errors() != 1 {
		t.Fatalf("seq %d errors %d after failed write", j.Seq(), j.Errors())
	}
	got, _ := ReadJournal(dir)
	if len(got) != 0 {
		t.Fatal("failed append reached the disk")
	}
	swapJournalFile(j, w)
	if err := j.Append(Entry{Event: evSubmitted, ID: "job-2"}); err != nil {
		t.Fatal(err)
	}
	if got, _ = ReadJournal(dir); len(got) != 1 || got[0].Seq != 2 || j.Errors() != 1 {
		t.Fatalf("append after the failure: %+v, errors %d; want one entry at seq 2", got, j.Errors())
	}
}

// TestRecoveryAnswersCompletedFromDisk: a restarted server knows every
// finished job from the journal and serves its result from the on-disk
// cache, bit-identical to a direct in-process run.
func TestRecoveryAnswersCompletedFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(201)
	s1 := newTestServer(t, Options{StateDir: dir})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{StateDir: dir})
	got, err := s2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job state %+v", got)
	}
	table, err := s2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonNormalize(t, directRun(t, spec))
	if !reflect.DeepEqual(table, want) {
		t.Fatal("recovered result differs from direct run")
	}
	// A twin submitted to the restarted server is a pure cache hit.
	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("post-restart twin not cached: %+v", st2)
	}
}

// TestRecoveryRerunsIncompleteJob is the crash-safety headline: a job
// interrupted mid-run (no terminal journal entry — exactly what a
// crash leaves behind) is re-enqueued by the next server start, runs to
// completion, and its result is bit-identical to a direct run.
func TestRecoveryRerunsIncompleteJob(t *testing.T) {
	dir := t.TempDir()
	spec := mediumSpec(211)
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1, DrainTimeout: time.Millisecond})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st.ID, StateRunning)
	// Drain with an immediate deadline: the run is cancelled mid-quantum
	// and, like a crash, leaves no terminal entry in the journal.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := s1.Status(st.ID); got.State != StateInterrupted {
		t.Fatalf("drained job state %+v", got)
	}
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.ID == st.ID && e.terminal() {
			t.Fatalf("interrupted job has terminal journal entry %+v", e)
		}
	}

	s2 := newTestServer(t, Options{StateDir: dir})
	got, err := s2.Status(st.ID)
	if err != nil {
		t.Fatalf("restarted server forgot the job: %v", err)
	}
	if !got.Resumed {
		t.Fatalf("incomplete job not marked resumed: %+v", got)
	}
	fin := waitTerminal(t, s2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %+v", fin)
	}
	table, err := s2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonNormalize(t, directRun(t, spec))
	if !reflect.DeepEqual(jsonNormalize(t, table), want) {
		t.Fatal("crash-resumed result differs from direct run")
	}
}

// v0SubmittedWithFaults is a submitted entry as the journal wrote it
// while job specs still carried a "faults" object (the fingerprint then
// hashed it in). This one fails every mix of tinySpec(231).
const v0SubmittedWithFaults = `{"seq":1,"event":"submitted","id":"job-1","trace_id":"afd3414febc9fc27","fp":"6f0c7e27f53d241a71d11f08179f629a","spec":{"experiment":"fig2","workloads":2,"warmup_quanta":1,"measured_quanta":1,"quantum":200000,"seed":231,"faults":{"Seed":1,"EvalFailProb":1,"TimeoutProb":0,"CorruptProb":0,"OutageProb":0,"OutageRounds":0,"HandlerLatencyProb":0,"HandlerLatency":0,"JobDropProb":0,"JournalFailProb":0,"FailAttempts":0,"Machines":null,"Rounds":null}}}`

// v1SubmittedWithRunTimeout is a submitted entry as the journal wrote it
// while job specs still carried a per-run deadline (the fingerprint then
// hashed it in).
const v1SubmittedWithRunTimeout = `{"seq":1,"event":"submitted","id":"job-1","trace_id":"082e82a3e0505e44","fp":"975d0794db55336c365144be5a8dca59","spec":{"experiment":"fig2","workloads":2,"warmup_quanta":1,"measured_quanta":1,"quantum":200000,"seed":241,"run_timeout_ms":60000}}`

// v2StartedWithAttempt is a started entry as the journal wrote it while
// the service still retried failed runs and numbered each one: this is
// the second run of v1SubmittedWithRunTimeout's job.
const v2StartedWithAttempt = `{"seq":2,"event":"started","id":"job-1","trace_id":"082e82a3e0505e44","fp":"975d0794db55336c365144be5a8dca59","attempt":2}`

// recoverLegacyLine starts a server over a journal holding only line
// (one or more journal lines): an incomplete job-1 whose lines carried a
// field that has since left the journal. Replay decodes journal lines
// leniently, so the job must recover as spec without that field: re-enqueued under spec's current
// fingerprint, keeping its journaled trace ID, and rerun clean,
// bit-identical to a direct run.
func recoverLegacyLine(t *testing.T, line, traceID string, spec exp.JobSpec) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{StateDir: dir})
	got, err := s.Status("job-1")
	if err != nil {
		t.Fatalf("restarted server forgot the job: %v", err)
	}
	if !got.Resumed || got.Spec != spec || got.Fingerprint != spec.Fingerprint() || got.TraceID != traceID {
		t.Fatalf("recovered job %+v, want %+v resumed under its fingerprint with trace %s", got, spec, traceID)
	}
	fin := waitTerminal(t, s, "job-1")
	if fin.State != StateDone {
		t.Fatalf("recovered job finished %+v", fin)
	}
	table, err := s.Result("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jsonNormalize(t, table), jsonNormalize(t, directRun(t, spec))) {
		t.Fatal("recovered result differs from direct run")
	}
}

// TestRecoveryIgnoresJournaledFaults: a job journaled with a "faults"
// object reruns without faults.
func TestRecoveryIgnoresJournaledFaults(t *testing.T) {
	recoverLegacyLine(t, v0SubmittedWithFaults, "afd3414febc9fc27", tinySpec(231))
}

// TestRecoveryIgnoresJournaledRunTimeout: a job journaled with a per-run
// deadline reruns without one.
func TestRecoveryIgnoresJournaledRunTimeout(t *testing.T) {
	recoverLegacyLine(t, v1SubmittedWithRunTimeout, "082e82a3e0505e44", tinySpec(241))
}

// TestRecoveryIgnoresJournaledAttempt: a job whose started line carries
// an attempt number recovers like any other incomplete job.
func TestRecoveryIgnoresJournaledAttempt(t *testing.T) {
	recoverLegacyLine(t, v1SubmittedWithRunTimeout+"\n"+v2StartedWithAttempt, "082e82a3e0505e44", tinySpec(241))
}

// TestRecoveryRekeysStaleFingerprint: a resumed job is keyed by its
// spec's fingerprint, not the one on its journal line, so a fresh
// submission of the same spec attaches to it while it runs and is
// answered from its cached result once it is done.
func TestRecoveryRekeysStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	spec := mediumSpec(251)
	stale := journalLines(t, []Entry{{Seq: 1, Event: evSubmitted, ID: "job-1", TraceID: "00000000feedface", Fingerprint: "stale", Spec: &spec}})
	if err := os.WriteFile(journalPath(dir), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{StateDir: dir})
	twin, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !twin.Dedup || twin.ID != "job-1" || twin.TraceID != "00000000feedface" || twin.Fingerprint != spec.Fingerprint() {
		t.Fatalf("submission beside the resumed job: %+v, want a dedup onto job-1", twin)
	}
	if fin := waitTerminal(t, s, "job-1"); fin.State != StateDone {
		t.Fatalf("resumed job finished %+v", fin)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("resubmission after the resumed job finished: %+v, want cached", again)
	}
}

// TestRecoveryServesDoneUnderJournaledFingerprint: a job that finished
// before its key changed keeps the key its table was stored under, so
// its result still answers from disk. A fresh submission of its spec
// does not inherit that table: it may have been cut short by a field
// the spec no longer carries. The done line's "partial" flag and the
// stored table's "Failures" key, which older versions wrote, are
// ignored.
func TestRecoveryServesDoneUnderJournaledFingerprint(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(271)
	const stale = "0123456789abcdef0123456789abcdef"
	store, err := newResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	table := directRun(t, spec)
	raw, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw[:len(raw)-1], `,"Failures":["item 1 (mcf+namd): lost"]}`...)
	if err := os.WriteFile(store.path(stale), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	lines := fmt.Sprintf("%s\n%s\n",
		legacySubmitted(t, 1, stale, spec, 10),
		`{"seq":2,"event":"done","id":"job-1","fp":"`+stale+`","partial":true}`)
	if err := os.WriteFile(journalPath(dir), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{StateDir: dir})
	got, err := s.Result("job-1")
	if err != nil {
		t.Fatalf("done job's stored result: %v", err)
	}
	if !reflect.DeepEqual(got, jsonNormalize(t, table)) {
		t.Fatal("done job's result differs from the table stored under its journaled key")
	}
	fresh, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.Dedup || fresh.Fingerprint != spec.Fingerprint() {
		t.Fatalf("fresh submission %+v took the legacy job's table", fresh)
	}
	waitTerminal(t, s, fresh.ID)
}

// legacySubmitted is a submitted line for job-<n> as the journal wrote
// it while specs carried a per-run deadline: spec plus run_timeout_ms,
// under the journaled fingerprint fp.
func legacySubmitted(t *testing.T, n int, fp string, spec exp.JobSpec, runTimeoutMS int) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"seq":%d,"event":"submitted","id":"job-%d","fp":%q,"spec":%s,"run_timeout_ms":%d}}`,
		n, n, fp, raw[:len(raw)-1], runTimeoutMS)
}

// TestRecoveryRunsSharedKeyOnce: two incomplete jobs whose specs
// differed only in run_timeout_ms share one key once it is recomputed.
// The spec runs once: the later ID answers as the earlier job, as a
// fresh submission of the spec does.
func TestRecoveryRunsSharedKeyOnce(t *testing.T) {
	dir := t.TempDir()
	spec := mediumSpec(281)
	lines := legacySubmitted(t, 1, "legacy-a", spec, 10) + "\n" + legacySubmitted(t, 2, "legacy-b", spec, 80) + "\n"
	if err := os.WriteFile(journalPath(dir), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{StateDir: dir})
	twin, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !twin.Dedup || twin.ID != "job-1" {
		t.Fatalf("submission beside the resumed jobs: %+v, want a dedup onto job-1", twin)
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("jobs sharing one run listed %d times: %+v", len(jobs), jobs)
	}
	if fin := waitTerminal(t, s, "job-2"); fin.ID != "job-1" || fin.State != StateDone {
		t.Fatalf("job-2 finished %+v, want job-1's single clean run", fin)
	}
	got, err := s.Result("job-2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, directRun(t, spec)) {
		t.Fatal("job-2's result differs from a direct run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	entries, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var started []string
	for _, e := range entries {
		if e.Event == evStarted {
			started = append(started, e.ID)
		}
	}
	if !reflect.DeepEqual(started, []string{"job-1"}) {
		t.Fatalf("started lines for %v, want job-1's single run", started)
	}
	s2 := newTestServer(t, Options{StateDir: dir})
	for _, id := range []string{"job-1", "job-2"} {
		if st, _ := s2.Status(id); st.State != StateDone || st.Resumed {
			t.Fatalf("%s after a second restart: %+v", id, st)
		}
		if _, err := s2.Result(id); err != nil {
			t.Fatalf("%s after a second restart: %v", id, err)
		}
	}
}

// TestRecoveryKeepsTerminalHistory: failed and cancelled jobs survive a
// restart as history, without being re-run.
func TestRecoveryKeepsTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, Workers: 1})
	failJobs(s1)
	fst, err := s1.Submit(tinySpec(221))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, fst.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	s2 := newTestServer(t, Options{StateDir: dir})
	got, err := s2.Status(fst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == "" {
		t.Fatalf("failed job not recovered as failed: %+v", got)
	}
	if got.Resumed {
		t.Fatal("terminal job marked for re-run")
	}
	// New submissions on the restarted server allocate fresh ids beyond
	// the journal's.
	st2, err := s2.Submit(tinySpec(222))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == fst.ID {
		t.Fatal("restarted server reused a journaled job id")
	}
	waitTerminal(t, s2, st2.ID)
}

// Package serve is the simulation-as-a-service layer: a long-running
// HTTP job service that accepts experiment jobs (exp.JobSpec documents)
// over JSON, runs them on a bounded worker pool with queue-depth
// admission control, and streams lifecycle events and per-quantum
// records to SSE clients through a dash.Broadcaster.
//
// Robustness is the design center rather than an afterthought: per-job
// deadlines propagate context cancellation into the simulator's cycle
// loop (jobs stop mid-quantum), each job runs once (a run is a pure
// function of its spec, so a failure would only repeat), panics are
// isolated per job, a job's result is a whole table or none (a sweep
// that loses a mix fails the job), SIGTERM drains gracefully, and an
// append-only JSONL journal makes the service crash-safe — a restarted
// server re-runs incomplete jobs and answers completed ones from the
// on-disk result cache. Results are
// memoized at whole-job granularity under exp.JobSpec.Fingerprint, with
// single-flight deduplication of identical concurrent submissions; a
// cached answer is bit-identical to a direct in-process run.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asmsim/internal/exp"
	"asmsim/internal/telemetry"
)

// Journal event names. A job's life is submitted -> started -> exactly
// one of done/failed/cancelled. A job with no terminal event did not
// finish — after a crash or drain the next server start re-runs it.
const (
	evSubmitted = "submitted"
	evStarted   = "started"
	evDone      = "done"
	evFailed    = "failed"
	evCancelled = "cancelled"
)

// Entry is one journal line. Only the fields relevant to its event are
// set: submitted carries the full spec (the journal is the durable copy
// of the job), done/failed carry the outcome. Replay reads Fingerprint
// only from terminal entries. Older journals also carry an "attempt"
// count on started lines and a "partial" flag on done lines; decoding
// ignores both.
type Entry struct {
	Seq         uint64       `json:"seq"`
	Event       string       `json:"event"`
	ID          string       `json:"id"`
	TraceID     string       `json:"trace_id,omitempty"`
	Fingerprint string       `json:"fp,omitempty"`
	Spec        *exp.JobSpec `json:"spec,omitempty"`
	Error       string       `json:"error,omitempty"`
}

// terminal reports whether the event ends a job's life.
func (e Entry) terminal() bool {
	return e.Event == evDone || e.Event == evFailed || e.Event == evCancelled
}

// Journal is the service's append-only write-ahead log: one JSON object
// per line, fsynced per append (appends happen at job transitions, not
// in any hot path). A nil *Journal accepts appends and drops them —
// the in-memory-only configuration.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	seq    uint64
	errs   uint64
	fsyncH *telemetry.Histogram
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// OpenJournal opens (creating if needed) the journal under dir and
// returns it along with every entry already on disk, in order — the
// recovery input. A trailing line truncated by a crash is cut off before
// the first append: left in place, it would run into the next entry and
// hide that entry and every later one from the next replay. Every
// append's fsync latency is recorded into fsync, which may be nil.
func OpenJournal(dir string, fsync *telemetry.Histogram) (*Journal, []Entry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	entries, valid, err := readJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: cut torn journal tail: %w", err)
	}
	j := &Journal{f: f, fsyncH: fsync}
	for _, e := range entries {
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
	}
	return j, entries, nil
}

// Append assigns the entry the next sequence number and writes it
// durably. The sequence number is consumed even when the write fails,
// so one poisoned sequence cannot wedge every subsequent append.
// Nil-safe: a nil journal drops the entry.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	b, err := json.Marshal(e)
	if err != nil {
		j.errs++
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		j.errs++
		return fmt.Errorf("serve: journal write: %w", err)
	}
	start := time.Now()
	err = j.f.Sync()
	j.fsyncH.Observe(time.Since(start))
	if err != nil {
		j.errs++
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Errors returns how many appends failed.
func (j *Journal) Errors() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errs
}

// Close syncs and closes the journal file. Nil-safe and idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ReadJournal returns every entry in dir's journal, in file order. A
// missing journal reads as empty. The first undecodable line ends the
// valid log, and so does a final line without its newline, which only a
// torn write leaves (a crash can truncate only the final line;
// everything before it was fsynced whole).
func ReadJournal(dir string) ([]Entry, error) {
	entries, _, err := readJournal(dir)
	return entries, err
}

// readJournal is ReadJournal that also returns the byte offset where the
// valid log ends: just past the last entry's newline.
func readJournal(dir string) (entries []Entry, valid int64, err error) {
	f, err := os.Open(journalPath(dir))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: read journal: %w", err)
	}
	defer f.Close()
	var off int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return 0, nil, nil // need more, or at EOF a torn line: stop
		}
		off += int64(i + 1)
		return i + 1, data[:i], nil
	})
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			break
		}
		entries = append(entries, e)
		valid = off
	}
	if err := sc.Err(); err != nil {
		return entries, valid, fmt.Errorf("serve: scan journal: %w", err)
	}
	return entries, valid, nil
}

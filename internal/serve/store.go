package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"asmsim/internal/exp"
)

// resultStore is the full-run result cache: completed tables keyed by
// the job's canonical fingerprint, held in memory and (when a state
// directory is configured) mirrored to disk as results/<fp>.json via
// write-temp-then-rename, so a reader never observes a half-written
// result. A run returns a whole table or an error, so every table it
// returns is the fingerprint's bit-identical answer and is stored.
// Decoding ignores the "Failures" key older tables carry.
type resultStore struct {
	dir string // "" = memory-only

	mu  sync.Mutex
	mem map[string]*exp.Table
}

func newResultStore(dir string) (*resultStore, error) {
	s := &resultStore{dir: dir, mem: map[string]*exp.Table{}}
	if dir != "" {
		if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
			return nil, fmt.Errorf("serve: results dir: %w", err)
		}
	}
	return s, nil
}

func (s *resultStore) path(fp string) string {
	return filepath.Join(s.dir, "results", fp+".json")
}

// Get returns the cached table for fp, consulting memory first and then
// disk (memoizing a disk hit). Tables handed out are shared and must be
// treated as immutable.
func (s *resultStore) Get(fp string) (*exp.Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.mem[fp]; ok {
		return t, true
	}
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(fp))
	if err != nil {
		return nil, false
	}
	var t exp.Table
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, false
	}
	s.mem[fp] = &t
	return &t, true
}

// Put stores the table under fp in memory and, when persistence is on,
// durably on disk. A disk failure leaves the in-memory entry in place
// and is reported to the caller.
func (s *resultStore) Put(fp string, t *exp.Table) error {
	s.mu.Lock()
	s.mem[fp] = t
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	b, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("serve: marshal result: %w", err)
	}
	tmp := s.path(fp) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("serve: write result: %w", err)
	}
	if err := os.Rename(tmp, s.path(fp)); err != nil {
		return fmt.Errorf("serve: publish result: %w", err)
	}
	return nil
}

// Len returns the number of in-memory entries (disk-only entries not
// yet read do not count).
func (s *resultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

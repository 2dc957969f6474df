// Package sim wires the substrates into the paper's simulated system
// (Table 2): per-core private L1 caches, a shared last-level L2 cache with
// per-application auxiliary tag stores and pollution filters, and a DDR3
// main memory behind a scheduling memory controller. It owns the global
// cycle loop, the quantum/epoch clock of Section 4, the ground-truth
// alone-run curves, and the per-quantum counter aggregation that the
// slowdown models (internal/core, internal/model) and resource-management
// policies (internal/partition) consume.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"asmsim/internal/cache"
	"asmsim/internal/workload"
)

// Policy selects the memory scheduling policy.
type Policy string

// Memory scheduling policies (Section 7.2 evaluates these).
const (
	PolicyFRFCFS Policy = "frfcfs"
	PolicyPARBS  Policy = "parbs"
	PolicyTCM    Policy = "tcm"
)

// Config describes one simulated system.
type Config struct {
	// Cores is the number of cores; each runs one application.
	Cores int

	// L1Bytes/L1Ways/L1Latency configure the private L1s (Table 2: 64 KB,
	// 4-way, 1 cycle).
	L1Bytes   int
	L1Ways    int
	L1Latency int

	// L2Bytes/L2Ways/L2Latency configure the shared last-level cache
	// (Table 2: 1-4 MB, 16-way, 20 cycles).
	L2Bytes   int
	L2Ways    int
	L2Latency int

	// MSHRs is the per-core miss-status register count (bounds per-app MLP).
	MSHRs int

	// WindowSize and IssueWidth configure the cores (Table 2: 128-entry
	// window, 3-wide).
	WindowSize int
	IssueWidth int

	// Channels is the number of memory channels (Table 2: 1-4). Every
	// channel runs DDR3-1333 timing (dram.DDR31333).
	Channels int

	// Quantum and Epoch are ASM's Q and E in cycles (Section 4: Q = 5M,
	// E = 10K).
	Quantum uint64
	Epoch   uint64
	// EpochPriority enables the epoch highest-priority mechanism at the
	// memory controller (required by ASM, MISE and ASM-Mem).
	EpochPriority bool
	// EpochRoundRobin assigns epochs round-robin instead of
	// probabilistically (Section 4.2 notes both work; the probabilistic
	// policy is what ASM-Mem builds on — this switch exists for the
	// ablation comparing the two).
	EpochRoundRobin bool

	// ATSSampledSets selects auxiliary-tag-store set sampling: 0 models
	// every set (unsampled); the paper's sampled configuration uses 64.
	ATSSampledSets int

	// Policy selects the memory scheduler.
	Policy Policy

	// Prefetch enables the per-core stride prefetcher (Section 6.2).
	Prefetch bool

	// WritebackBackpressure is the maximum number of parked writebacks
	// (dirty evictions waiting for memory write-queue space) before the
	// memory path backpressures new L1 misses. 0 selects the default of
	// 32, which preserves the historical behavior; negative is invalid.
	WritebackBackpressure int

	// Seed drives all pseudo-random streams.
	Seed uint64

	// StreamSeed, when non-zero, seeds the synthetic instruction streams
	// independently of Seed (which keeps driving the epoch lottery and
	// scheduler randomness). Sweeps set StreamSeed to one fixed value
	// across all workload mixes so a benchmark replays the same stream in
	// every mix — the property that lets the alone-run ground-truth curve
	// cache (AloneCurveCache) pay each benchmark's alone simulation once
	// per sweep instead of once per mix. 0 selects Seed.
	StreamSeed uint64
}

// DefaultConfig returns the paper's main evaluation system: 4 cores, 2 MB
// shared cache, 1 memory channel, Q = 5M cycles, E = 10K cycles.
// Experiments scale Quantum down in quick mode; the code paths are
// identical.
func DefaultConfig() Config {
	return Config{
		Cores:         4,
		L1Bytes:       64 << 10,
		L1Ways:        4,
		L1Latency:     1,
		L2Bytes:       2 << 20,
		L2Ways:        16,
		L2Latency:     20,
		MSHRs:         16,
		WindowSize:    128,
		IssueWidth:    3,
		Channels:      1,
		Quantum:       5_000_000,
		Epoch:         10_000,
		EpochPriority: true,
		Policy:        PolicyFRFCFS,
		Seed:          1,
	}
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: need at least one core")
	case c.L1Bytes <= 0 || c.L1Ways <= 0 || c.L2Bytes <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("sim: cache geometry must be positive")
	case c.Quantum == 0:
		return fmt.Errorf("sim: quantum must be positive")
	case c.EpochPriority && c.Epoch == 0:
		return fmt.Errorf("sim: epoch must be positive when epoch priority is on")
	case c.EpochPriority && c.Quantum%c.Epoch != 0:
		return fmt.Errorf("sim: quantum %d not a multiple of epoch %d", c.Quantum, c.Epoch)
	case c.Channels <= 0:
		return fmt.Errorf("sim: need at least one channel")
	case c.MSHRs <= 0 || c.WindowSize <= 0 || c.IssueWidth <= 0:
		return fmt.Errorf("sim: core resources must be positive")
	case c.WritebackBackpressure < 0:
		return fmt.Errorf("sim: writeback backpressure must be non-negative (0 selects the default of %d)", defaultWritebackBackpressure)
	}
	if err := cache.CheckGeometry(c.L1Sets(), c.L1Ways, c.Cores); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	l2Sets := c.L2Sets()
	if err := cache.CheckGeometry(l2Sets, c.L2Ways, c.Cores); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if c.ATSSampledSets > 0 && l2Sets%c.ATSSampledSets != 0 {
		return fmt.Errorf("sim: ATS sampled sets %d must divide %d", c.ATSSampledSets, l2Sets)
	}
	return nil
}

// L1Sets returns the L1 set count.
func (c Config) L1Sets() int { return c.L1Bytes / (workload.LineSize * c.L1Ways) }

// L2Sets returns the L2 set count.
func (c Config) L2Sets() int { return c.L2Bytes / (workload.LineSize * c.L2Ways) }

// defaultWritebackBackpressure is the historical hard-coded limit on
// parked writebacks before the memory path rejects new L1 misses.
const defaultWritebackBackpressure = 32

// wbBackpressure returns the writeback backpressure threshold, resolving
// the zero value to the default.
func (c Config) wbBackpressure() int {
	if c.WritebackBackpressure == 0 {
		return defaultWritebackBackpressure
	}
	return c.WritebackBackpressure
}

// streamSeed returns the seed driving the synthetic instruction streams:
// StreamSeed if set, else Seed.
func (c Config) streamSeed() uint64 {
	if c.StreamSeed != 0 {
		return c.StreamSeed
	}
	return c.Seed
}

// Fingerprint returns a canonical string identifying every
// behavior-relevant knob of the configuration, with defaults resolved
// (writeback backpressure, stream seed). Two configs with equal
// fingerprints simulate identically given identical sources. The
// alone-run curve cache keys entries by the fingerprint of the
// canonicalized single-core configuration (see aloneCurveConfig).
func (c Config) Fingerprint() string {
	return fmt.Sprintf(
		"cores=%d l1=%d/%d/%d l2=%d/%d/%d mshr=%d win=%d iw=%d ch=%d q=%d e=%d ep=%t rr=%t ats=%d pol=%s pref=%t wb=%d seed=%d stream=%d",
		c.Cores, c.L1Bytes, c.L1Ways, c.L1Latency,
		c.L2Bytes, c.L2Ways, c.L2Latency,
		c.MSHRs, c.WindowSize, c.IssueWidth,
		c.Channels, c.Quantum, c.Epoch,
		c.EpochPriority, c.EpochRoundRobin, c.ATSSampledSets, c.Policy,
		c.Prefetch, c.wbBackpressure(), c.Seed, c.streamSeed())
}

// FingerprintHash condenses an ordered list of canonical fingerprint
// parts into one stable 128-bit hex digest. It is the keying primitive
// for whole-run memoization: the serving layer fingerprints a job as
// FingerprintHash(experiment id, scale knobs..., Config.Fingerprint()),
// extending the alone-curve cache's exact-identity keying from one
// single-core replica to a complete experiment run. Parts are joined
// with an unprintable separator so no concatenation of distinct part
// lists can collide textually.
func FingerprintHash(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(h[:16])
}

// soloConfig is the single-core normalization every alone replica needs:
// one core, no epoch prioritization, FR-FCFS — a lone app on FR-FCFS
// hardware is the paper's alone-run definition. Every other knob is the
// shared run's; the tests' full solo replica (newAloneOracle) runs under
// exactly this.
func (c Config) soloConfig() Config {
	a := c
	a.Cores = 1
	a.EpochPriority = false
	a.Epoch = 0
	a.Policy = PolicyFRFCFS
	return a
}

// aloneCurveConfig canonicalizes a shared-run config to the single-core
// configuration an alone-run ground-truth curve is keyed and simulated
// under. Beyond soloConfig's normalization, it also zeroes the
// knobs proven timing-invisible for a solo run, so sweeps over them
// share one curve:
//
//   - ATSSampledSets and the pollution filter only feed estimation
//     counters, never hit/miss outcomes or latencies (the curve cache's
//     replicas leave both structures out altogether, see newSystem);
//   - Quantum boundaries only reset accounting state (per-quantum DRAM
//     and cache counters), never scheduling state, so quantum length
//     cannot change when instructions retire;
//   - Seed only drives the epoch lottery and TCM clustering, both
//     disabled here; stream identity lives in the AppSource key, not
//     the config.
func (c Config) aloneCurveConfig() Config {
	a := c.soloConfig()
	a.EpochRoundRobin = false
	a.ATSSampledSets = 0
	a.Quantum = 1_000_000
	a.Seed = 1
	a.StreamSeed = 0
	return a
}

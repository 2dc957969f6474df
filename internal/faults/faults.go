// Package faults is a deterministic, seeded fault injector for the
// cluster balancer.
//
// The ROADMAP's production framing (always-on slowdown-aware migration
// and admission control, Section 7.5 of the paper) only matters on a
// system where machines fail and counters go bad.
// This package is the test substrate for those paths: every injection
// decision is a pure function of (seed, site), so a faulty run is exactly
// as reproducible as a clean one — same seed, same outages, same
// corrupted quanta, regardless of goroutine scheduling or call order.
//
// Two styles of injection compose freely:
//
//   - probabilistic chaos (EvalFailProb, CorruptProb, OutageProb) for
//     soak-style robustness sweeps;
//   - deterministic scripting (a probability of 1 restricted by Machines
//     and Rounds) for tests and drills that need one specific machine to
//     fail in one specific round.
package faults

import (
	"errors"
	"fmt"
	"math"

	"asmsim/internal/rng"
	"asmsim/internal/sim"
)

// Kind classifies an injected fault.
type Kind int

const (
	// EvalFailure is a machine evaluation returning an error.
	EvalFailure Kind = iota
	// Corruption is a NaN/Inf-corrupted counter snapshot.
	Corruption
	// Outage is a transient whole-machine outage.
	Outage
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case EvalFailure:
		return "evaluation failure"
	case Corruption:
		return "counter corruption"
	case Outage:
		return "machine outage"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected fault wraps, so callers can
// tell chaos from genuine failures with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// Fault is one injected failure.
type Fault struct {
	Kind Kind
	// Site identifies where the fault was injected: the machine and
	// round of a cluster evaluation.
	Site string
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("faults: injected %s at %s", f.Kind, f.Site) }

// Unwrap makes errors.Is(f, ErrInjected) true.
func (f *Fault) Unwrap() error { return ErrInjected }

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every injection decision. Decisions are pure functions
	// of (Seed, site): two injectors with equal configs agree everywhere.
	Seed uint64

	// Probabilistic chaos knobs, each a per-site probability in [0, 1].
	EvalFailProb float64 // an evaluation fails outright
	CorruptProb  float64 // a quantum's counter snapshot gains NaN/Inf
	OutageProb   float64 // a machine starts a transient outage this round

	// OutageRounds is how many rounds an outage lasts (0 selects 1).
	OutageRounds int

	// Machines restricts machine-keyed faults (evaluation failures,
	// outages) to the listed machines; nil means every machine.
	Machines []int
	// Rounds restricts machine-keyed faults to the listed rounds; nil
	// means every round. With EvalFailProb 1 the two pin a failure to
	// chosen machines in chosen rounds.
	Rounds []int
}

// Enabled reports whether the configuration can inject anything.
func (c Config) Enabled() bool {
	return c.EvalFailProb > 0 || c.CorruptProb > 0 || c.OutageProb > 0
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"EvalFailProb", c.EvalFailProb},
		{"CorruptProb", c.CorruptProb},
		{"OutageProb", c.OutageProb},
	} {
		if !(p.v >= 0 && p.v <= 1) { // NaN included
			return fmt.Errorf("faults: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.OutageRounds < 0 {
		return fmt.Errorf("faults: negative OutageRounds %d", c.OutageRounds)
	}
	return nil
}

// Injector makes deterministic fault decisions. A nil *Injector is valid
// and injects nothing, so callers need no enabled-checks at use sites.
type Injector struct {
	cfg Config
}

// New returns an injector for the config, or nil when the config cannot
// inject anything (the nil injector is safe to use).
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg}
}

// roll is a deterministic Bernoulli draw for one site.
func (in *Injector) roll(site string, p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.NewNamed(in.cfg.Seed, "faults/"+site).Float64() < p
}

// matches applies the Machines/Rounds scripting restrictions.
func (in *Injector) matches(machine, round int) bool {
	inList := func(list []int, v int) bool {
		if list == nil {
			return true
		}
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	return inList(in.cfg.Machines, machine) && inList(in.cfg.Rounds, round)
}

// FailEval decides whether a machine's evaluation in a round fails,
// returning the injected fault or nil. The roll site keeps its old
// " attempt 0" suffix, so a seed fails the same (machine, round) sites
// it always has.
func (in *Injector) FailEval(machine, round int) error {
	if in == nil || !in.matches(machine, round) {
		return nil
	}
	site := fmt.Sprintf("machine %d round %d", machine, round)
	if in.roll("evalfail/"+site+" attempt 0", in.cfg.EvalFailProb) {
		return &Fault{Kind: EvalFailure, Site: site}
	}
	return nil
}

// OutageStarts reports whether a transient outage begins on the machine at
// the given round. The caller tracks the outage's remaining duration
// (OutageLen rounds including this one).
func (in *Injector) OutageStarts(machine, round int) bool {
	if in == nil || !in.matches(machine, round) {
		return false
	}
	site := fmt.Sprintf("outage/machine %d round %d", machine, round)
	return in.roll(site, in.cfg.OutageProb)
}

// OutageLen returns how many rounds an injected outage lasts.
func (in *Injector) OutageLen() int {
	if in == nil || in.cfg.OutageRounds <= 0 {
		return 1
	}
	return in.cfg.OutageRounds
}

// CorruptStats decides whether the counter snapshot for the given site and
// quantum is corrupted. When it is, it returns a deep copy with NaN/Inf
// planted in the per-app float counters (the model-facing fields a flaky
// performance-monitoring readout would garble) and true; the original
// snapshot is never modified, so ground-truth consumers stay clean.
func (in *Injector) CorruptStats(site string, st *sim.QuantumStats) (*sim.QuantumStats, bool) {
	if in == nil {
		return st, false
	}
	key := fmt.Sprintf("corrupt/%s quantum %d", site, st.Quantum)
	if !in.roll(key, in.cfg.CorruptProb) {
		return st, false
	}
	cp := st.Clone()
	vals := rng.NewNamed(in.cfg.Seed, "faults/val/"+key)
	for a := range cp.Apps {
		aq := &cp.Apps[a]
		switch vals.Intn(3) {
		case 0:
			aq.MemInterfCycles = math.NaN()
		case 1:
			aq.PFContentionExtra = math.Inf(1)
		default:
			aq.ATSContentionExtra = math.NaN()
		}
	}
	return cp, true
}

package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"asmsim/internal/sim"
)

// JobSpec is the serializable form of one experiment job: which
// registered experiment to run and which scale knobs to override. It is
// what clients POST to the job service (internal/serve) and what the
// service journals to disk, so every field must round-trip through JSON
// without loss. Zero-valued fields inherit from the base scale (Quick,
// or Full when Full is set), which keeps the common request — "run fig2
// at quick scale" — a one-field document.
type JobSpec struct {
	// Experiment is the registry id (fig2, tab3, abl-ats, ...).
	Experiment string `json:"experiment"`
	// Full selects the paper-scale base (exp.Full) instead of exp.Quick.
	Full bool `json:"full,omitempty"`
	// Scale overrides; 0 inherits the base scale's value.
	Workloads      int    `json:"workloads,omitempty"`
	WarmupQuanta   int    `json:"warmup_quanta,omitempty"`
	MeasuredQuanta int    `json:"measured_quanta,omitempty"`
	Quantum        uint64 `json:"quantum,omitempty"`
	Epoch          uint64 `json:"epoch,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
}

// DecodeJobSpec parses a job document the way the job service admits
// one: a single JSON value naming only JobSpec's fields, followed by
// nothing but whitespace. It does not validate the spec.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var j JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return JobSpec{}, err
	}
	if len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return JobSpec{}, fmt.Errorf("exp: data after the job spec")
	}
	return j, nil
}

// Validate reports whether the spec names a known experiment and
// resolves to a runnable scale.
func (j JobSpec) Validate() error {
	if _, err := ByID(j.Experiment); err != nil {
		return err
	}
	if j.Workloads < 0 || j.WarmupQuanta < 0 || j.MeasuredQuanta < 0 {
		return fmt.Errorf("exp: job scale overrides must be non-negative: %+v", j)
	}
	sc := j.Scale()
	if sc.MeasuredQuanta <= 0 {
		return fmt.Errorf("exp: job needs at least one measured quantum")
	}
	if err := sc.BaseConfig().Validate(); err != nil {
		return err
	}
	return nil
}

// Scale resolves the spec's knobs: the base scale with the spec's
// overrides applied. It attaches no alone-curve cache, so validating or
// fingerprinting a spec builds none; Run gives each run a fresh one (a
// job shares alone curves within itself; cross-job sharing is the result
// cache's job, at whole-run granularity).
func (j JobSpec) Scale() Scale {
	sc := baseScale(j.Full)
	if j.Workloads > 0 {
		sc.Workloads = j.Workloads
	}
	if j.WarmupQuanta > 0 {
		sc.WarmupQuanta = j.WarmupQuanta
	}
	if j.MeasuredQuanta > 0 {
		sc.MeasuredQuanta = j.MeasuredQuanta
	}
	if j.Quantum > 0 {
		sc.Quantum = j.Quantum
	}
	if j.Epoch > 0 {
		sc.Epoch = j.Epoch
	}
	if j.Seed > 0 {
		sc.Seed = j.Seed
	}
	return sc
}

// Fingerprint returns the job's canonical whole-run identity: a stable
// digest of the experiment id, every resolved scale knob that can
// change the result, and the base config's own fingerprint (which
// resolves timing, backpressure and stream-seed defaults). Two specs
// with equal fingerprints produce bit-identical tables — the property
// the full-run result cache and its equivalence test rely on — because
// every downstream choice (workload mixes, per-mix seeds, scheme
// configs) is a pure function of (experiment, scale). Spellings that
// resolve identically (an explicit override equal to the base default
// vs. the field left zero) fingerprint identically, so the cache
// deduplicates across clients that phrase the same job differently.
func (j JobSpec) Fingerprint() string {
	sc := j.Scale()
	return sim.FingerprintHash(
		"job/v1",
		j.Experiment,
		strconv.Itoa(sc.Workloads),
		strconv.Itoa(sc.WarmupQuanta),
		strconv.Itoa(sc.MeasuredQuanta),
		sc.BaseConfig().Fingerprint(),
	)
}

// Run executes the job: resolve the experiment, build the scale with a
// fresh alone-curve cache, apply the caller's tuning hooks (the job
// service attaches telemetry, the dashboard and its tracer this way —
// none of those affect results), and run. Cancelling ctx stops the sweep
// mid-quantum.
func (j JobSpec) Run(ctx context.Context, tune ...func(*Scale)) (*Table, error) {
	e, err := ByID(j.Experiment)
	if err != nil {
		return nil, err
	}
	sc := j.Scale().withAloneCache()
	for _, fn := range tune {
		if fn != nil {
			fn(&sc)
		}
	}
	return e.Run(ctx, sc)
}

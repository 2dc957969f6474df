package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// tinyJob is a fast end-to-end job spec used across the job and serve
// tests: a 2-mix fig6-style sweep finishing in well under a second.
func tinyJob() JobSpec {
	return JobSpec{
		Experiment:     "fig2",
		Workloads:      2,
		WarmupQuanta:   1,
		MeasuredQuanta: 1,
		Quantum:        200_000,
		Seed:           7,
	}
}

func TestJobSpecValidate(t *testing.T) {
	if err := tinyJob().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]JobSpec{
		"unknown experiment": {Experiment: "nonesuch"},
		"negative workloads": func() JobSpec { j := tinyJob(); j.Workloads = -1; return j }(),
		"bad quantum/epoch":  func() JobSpec { j := tinyJob(); j.Quantum = 999; j.Epoch = 1000; return j }(),
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: spec %+v accepted", name, bad)
		}
	}
}

// TestJobSpecFingerprint: equal resolved jobs fingerprint equally —
// including specs that spell the same job differently — and any
// result-relevant knob changes the fingerprint.
func TestJobSpecFingerprint(t *testing.T) {
	base := tinyJob()
	if base.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	// An explicit override equal to the base default is the same job.
	explicit := base
	explicit.Epoch = Quick().Epoch
	if explicit.Fingerprint() != base.Fingerprint() {
		t.Fatal("resolved-equal specs fingerprint differently")
	}
	mutations := map[string]func(*JobSpec){
		"experiment": func(j *JobSpec) { j.Experiment = "fig3" },
		"workloads":  func(j *JobSpec) { j.Workloads = 3 },
		"warmup":     func(j *JobSpec) { j.WarmupQuanta = 2 },
		"measured":   func(j *JobSpec) { j.MeasuredQuanta = 2 },
		"quantum":    func(j *JobSpec) { j.Quantum = 400_000 },
		"epoch":      func(j *JobSpec) { j.Epoch = 20_000 },
		"seed":       func(j *JobSpec) { j.Seed = 8 },
	}
	for name, mutate := range mutations {
		m := base
		mutate(&m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
	// Full changes the fingerprint of a spec that inherits the base
	// scale — but NOT of one that overrides every knob Full touches
	// (resolved-equal jobs are the same job).
	bare := JobSpec{Experiment: "fig2"}
	fullBare := bare
	fullBare.Full = true
	if fullBare.Fingerprint() == bare.Fingerprint() {
		t.Fatal("full-scale base did not change a bare spec's fingerprint")
	}
	fullTiny := base
	fullTiny.Full = true
	if fullTiny.Fingerprint() != base.Fingerprint() {
		t.Fatal("fully-overridden spec's fingerprint depends on the inherited base")
	}
}

// TestJobSpecJSONRoundTrip: the journal and the HTTP API depend on
// specs surviving JSON without losing identity.
func TestJobSpecJSONRoundTrip(t *testing.T) {
	j := tinyJob()
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, back) {
		t.Fatalf("round trip changed the spec:\n %+v\n %+v", j, back)
	}
	if back.Fingerprint() != j.Fingerprint() {
		t.Fatal("round trip changed the fingerprint")
	}
}

// TestJobSpecFingerprintAllocs: validating and fingerprinting a spec —
// what every submission to the job service does, cache hits included —
// resolve its knobs without building an alone-curve cache. Budgets are
// the measured objects × 1.15, rounded up; a cache built per resolution
// doubles them.
func TestJobSpecFingerprintAllocs(t *testing.T) {
	j := tinyJob()
	if n := testing.AllocsPerRun(100, func() { _ = j.Fingerprint() }); n > 13 {
		t.Errorf("Fingerprint allocates %.0f objects, budget 13", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = j.Validate() }); n > 12 {
		t.Errorf("Validate allocates %.0f objects, budget 12", n)
	}
	if j.Scale().AloneCache != nil {
		t.Error("Scale attached an alone-curve cache")
	}
}

// TestJobSpecRunMatchesDirect: JobSpec.Run is exactly the in-process
// experiment run of the resolved scale — the identity the service's
// result cache extends across processes.
func TestJobSpecRunMatchesDirect(t *testing.T) {
	job := tinyJob()
	viaJob, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e, err := ByID(job.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Run(context.Background(), job.Scale())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaJob, direct) {
		t.Fatalf("job run differs from direct run:\n%v\nvs\n%v", viaJob, direct)
	}
}

// TestJobSpecRunHonorsCancellation: a cancelled job stops promptly and
// surfaces the context error.
func TestJobSpecRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tinyJob().Run(ctx); err == nil {
		t.Fatal("cancelled job returned no error")
	}
}

// retiredOrTrailing are job documents DecodeJobSpec must refuse: fields
// that left the job document (fault injection is configured per cluster
// and per service process; wall time is bounded by the caller's
// context), and data after the spec, which could otherwise smuggle an
// unknown field past the decoder.
var retiredOrTrailing = []string{
	`{"experiment":"fig2","workloads":2,"warmup_quanta":1,"measured_quanta":1,"quantum":200000,"seed":221,"faults":{"Seed":1,"EvalFailProb":1}}`,
	`{"experiment":"fig2","workloads":2,"measured_quanta":1,"seed":7,"run_timeout_ms":100}`,
	`{"experiment":"fig2"}{"faults":{}}`,
	`{"experiment":"fig2"} junk`,
	`{"experiment":"fig2"}}`,
}

// TestDecodeJobSpec: the decoder the job service runs admits one spec
// followed by whitespace, and nothing else.
func TestDecodeJobSpec(t *testing.T) {
	j, err := DecodeJobSpec([]byte(`{"experiment":"fig2","seed":7}` + " \n"))
	if err != nil || j != (JobSpec{Experiment: "fig2", Seed: 7}) {
		t.Fatalf("decoded %+v, %v", j, err)
	}
	for _, doc := range retiredOrTrailing {
		if j, err := DecodeJobSpec([]byte(doc)); err == nil {
			t.Errorf("%s decoded as %+v", doc, j)
		}
	}
}

// FuzzJobSpecFingerprint: whatever a client sends, decoding it, validating
// it and fingerprinting it never panic, and a valid spec keeps its
// fingerprint through a marshal → decode round trip — the journal and the
// result cache store specs as JSON and key them by fingerprint. The seed
// corpus is the job service tests' specs; it runs under plain go test.
func FuzzJobSpecFingerprint(f *testing.F) {
	tiny := func(seed uint64) JobSpec { j := tinyJob(); j.Seed = seed; return j }
	slow, medium := tiny(11), tiny(121)
	slow.MeasuredQuanta, medium.MeasuredQuanta = 120, 20
	for _, doc := range retiredOrTrailing {
		f.Add([]byte(doc))
	}
	for _, j := range []JobSpec{tiny(7), tiny(81), slow, medium, {Experiment: "nonesuch"}} {
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"experiment":"fig2","bogus":1}`))
	f.Add([]byte(`{"experiment":"fig2","workloads":2,"measured_quanta":1,"seed":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		fp := j.Fingerprint()
		if j.Validate() != nil {
			return
		}
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("valid spec %+v does not marshal: %v", j, err)
		}
		back, err := DecodeJobSpec(b)
		if err != nil {
			t.Fatalf("valid spec %+v does not decode from its own JSON %s: %v", j, b, err)
		}
		if got := back.Fingerprint(); got != fp {
			t.Fatalf("round trip changed the fingerprint of %+v: %s -> %s", j, fp, got)
		}
	})
}

package observe

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asmsim/internal/telemetry"
)

func TestRegisterDeclaresOnlyNamedFlags(t *testing.T) {
	f := Flags{TraceSample: 64}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs, map[string]string{"telemetry": "dir", "trace-sample": "every Nth"})
	if got := fs.Lookup("trace-sample").DefValue; got != "64" {
		t.Fatalf("trace-sample default %q, want the field's 64", got)
	}
	if fs.Lookup("dash") != nil {
		t.Fatal("an undeclared observer flag was registered")
	}
	if err := fs.Parse([]string{"-telemetry", "d", "-trace-sample", "3"}); err != nil {
		t.Fatal(err)
	}
	if f.Telemetry != "d" || f.TraceSample != 3 {
		t.Fatalf("parsed flags %+v", f)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unknown flag name must panic")
		}
	}()
	f.Register(flag.NewFlagSet("y", flag.ContinueOnError), map[string]string{"bogus": ""})
}

// TestPerRunFilesAndLIFOClose: each Run opens its own files, EndRun
// flushes them, and Close flushes tracked sinks last-first and fails
// when any sink did.
func TestPerRunFilesAndLIFOClose(t *testing.T) {
	dir := t.TempDir()
	o, err := Start(Flags{
		Telemetry: filepath.Join(dir, "tel"),
		Trace:     filepath.Join(dir, "trace"),
		PerRun:    true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		opts, err := o.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Recorder == nil || opts.Trace == nil || opts.Metrics != o.Registry {
			t.Fatalf("run %s options %+v", id, opts)
		}
		opts.Recorder.Record(&telemetry.QuantumRecord{Bench: id})
	}
	var order []string
	o.Track("first", func() error { order = append(order, "first"); return nil })
	o.Track("second", func() error { order = append(order, "second"); return errors.New("disk full") })
	if err := o.Close(); err == nil {
		t.Fatal("Close must fail when a sink failed to flush")
	}
	if !reflect.DeepEqual(order, []string{"second", "first"}) {
		t.Fatalf("flush order %v, want LIFO", order)
	}
	if _, err := os.Stat(filepath.Join(dir, "tel/metrics.jsonl")); err != nil {
		t.Error(err)
	}
	for _, p := range []string{"tel/a.quanta.jsonl", "tel/b.quanta.jsonl", "trace/a.trace.json", "trace/b.trace.json"} {
		if fi, err := os.Stat(filepath.Join(dir, p)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty after Close: %v", p, err)
		}
	}
}

// TestFlightRing: every process gets one ring. A binary offering
// -slo-flight feeds it the quantum stream under -slo and dumps into the
// -telemetry directory by default; a binary that does not (asmserve,
// whose job service feeds the ring itself) keeps it off the run's
// recorder, so each record enters the ring once, and dumps only where
// SLOFlight says.
func TestFlightRing(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(spec, []byte(`{"slos":[{"name":"b","signal":"qos","bound":2.0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		declared  bool
		flags     Flags
		wantRing  int    // ring events after one record
		wantDumps string // the dump directory; "" for no dumps
	}{
		{"offers -slo-flight", true, Flags{SLO: spec, Telemetry: filepath.Join(dir, "tel")}, 1, filepath.Join(dir, "tel")},
		{"service", false, Flags{SLO: spec, SLOFlight: filepath.Join(dir, "svc")}, 0, filepath.Join(dir, "svc")},
		{"service without state", false, Flags{SLO: spec}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.flags
			if tc.declared {
				f.Register(flag.NewFlagSet("x", flag.ContinueOnError), map[string]string{"slo-flight": ""})
			}
			o, err := Start(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			tel, _ := o.Run("")
			tel.Recorder.Record(&telemetry.QuantumRecord{Bench: "mcf", Actual: 1.5})
			if got := len(o.Flight.Events()); got != tc.wantRing {
				t.Fatalf("ring holds %d events after one record, want %d", got, tc.wantRing)
			}
			path, err := o.Flight.Dump("probe")
			if err != nil {
				t.Fatal(err)
			}
			if path != "" {
				path = filepath.Dir(path)
			}
			if path != tc.wantDumps {
				t.Fatalf("dump landed in %q, want %q", path, tc.wantDumps)
			}
		})
	}
}

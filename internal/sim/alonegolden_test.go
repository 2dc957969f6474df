package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateAloneGolden = flag.Bool("update-alone-golden", false, "rewrite testdata/alone_curve_golden.json from this build")

// TestAloneCurveGolden pins the alone-run ground truth itself: a sha256 over
// the run-length segments a lean replica records for a compute-bound
// (povray), two medium (gcc) and two memory-bound (mcf, libquantum)
// streams extended to 1 M instructions, plus the replica cycle the
// extension stopped at. The digests were recorded from the per-cycle core
// under System.Tick, so a change in how a replica advances — or in which
// retiring cycles it reports to its curve — shows here even where every
// differential test compares two runs of the new code. Regenerate (after
// an intended model change only) with
//
//	go test ./internal/sim -run TestAloneCurveGolden -update-alone-golden
func TestAloneCurveGolden(t *testing.T) {
	const instrs = 1_000_000
	path := filepath.Join("testdata", "alone_curve_golden.json")
	got := map[string]string{}
	for _, name := range []string{"povray", "gcc", "mcf", "libquantum"} {
		cv := freshCurve(t, name)
		cv.cyclesAt(instrs)
		h := sha256.New()
		fmt.Fprintf(h, "stopped at cycle %d\n", cv.sys.Cycle())
		for _, s := range curveSegs(cv) {
			fmt.Fprintf(h, "%+v\n", s)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	if *updateAloneGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d curves, the test builds %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: alone curve digest %s, golden %s", name, g, w)
		}
	}
}

package evtrace

import (
	"math"
	"strings"
)

// ScaleRows converts an integer attribution matrix (victim-major: raw[j][i]
// is the unscaled interference cycles cause i inflicted on victim j) into
// parallelism-scaled cycles such that row j, summed left-to-right
// (RowSum), reproduces rowTotals[j] bit-exactly. Each entry is
// apportioned proportionally to its raw share and the row's largest
// entry absorbs the floating-point remainder, so the matrix decomposes
// the controller's per-app accounting without inventing or losing a
// single bit of it.
func ScaleRows(raw [][]uint64, rowTotals []float64) [][]float64 {
	out := make([][]float64, len(raw))
	for j, row := range raw {
		scaled := make([]float64, len(row))
		out[j] = scaled
		var sum uint64
		maxIdx := -1
		for i, v := range row {
			sum += v
			if v > 0 && (maxIdx < 0 || v > row[maxIdx]) {
				maxIdx = i
			}
		}
		if sum == 0 || maxIdx < 0 || j >= len(rowTotals) {
			continue
		}
		total := rowTotals[j]
		var others float64
		for i, v := range row {
			if i == maxIdx || v == 0 {
				continue
			}
			scaled[i] = total * (float64(v) / float64(sum))
			others += scaled[i]
		}
		scaled[maxIdx] = total - others
		// total-others can round an ulp away from the value that makes the
		// left-to-right sum land exactly. The sequential sum is monotone in
		// the absorber, so walk the absorber until the reconstruction is
		// bit-exact; real rows converge in a step or two. One failure mode
		// remains: when a smaller entry's sub-ulp bits put every exact sum
		// on a round-half-even tie, the absorber steps straddle the total
		// without hitting it — perturbing that entry by one of its own
		// ulps (a harmless ~1e-16 relative distortion) breaks the parity.
		solve := func() bool {
			for steps := 0; steps < 64; steps++ {
				s := RowSum(scaled)
				if s == total {
					return true
				}
				if s < total {
					scaled[maxIdx] = math.Nextafter(scaled[maxIdx], math.Inf(1))
				} else {
					scaled[maxIdx] = math.Nextafter(scaled[maxIdx], math.Inf(-1))
				}
			}
			return RowSum(scaled) == total
		}
		if !solve() {
			for i := range scaled {
				if i == maxIdx || scaled[i] == 0 {
					continue
				}
				scaled[i] = math.Nextafter(scaled[i], math.Inf(-1))
				if solve() {
					break
				}
			}
		}
	}
	return out
}

// RowSum is the reconstruction ScaleRows guarantees bit-exact: the plain
// left-to-right sum of a scaled row.
func RowSum(row []float64) float64 {
	var s float64
	for _, v := range row {
		s += v
	}
	return s
}

// AddMatrix accumulates src into dst element-wise, growing dst rows as
// needed (dst and src are victim-major float matrices of equal shape in
// practice).
func AddMatrix(dst, src [][]float64) [][]float64 {
	for j, row := range src {
		for j >= len(dst) {
			dst = append(dst, nil)
		}
		for i, v := range row {
			for i >= len(dst[j]) {
				dst[j] = append(dst[j], 0)
			}
			dst[j][i] += v
		}
	}
	return dst
}

// Summary aggregates a per-quantum attribution series: element-wise sums
// of the memory and cache matrices, summed row totals, and summed
// per-app stats. Returns the zero value for an empty series.
type Summary struct {
	Apps         []string
	Quanta       int
	Cycles       uint64 // total cycles covered
	Mem          [][]float64
	MemRowTotals []float64
	Cache        [][]float64
	AppStats     []AppQuantumStats
}

// Summarize folds the series into one aggregate Summary.
func Summarize(quanta []QuantumAttribution) Summary {
	var s Summary
	for _, q := range quanta {
		if s.Apps == nil {
			s.Apps = q.Apps
			s.AppStats = make([]AppQuantumStats, len(q.AppStats))
			for j := range q.AppStats {
				s.AppStats[j].Name = q.AppStats[j].Name
			}
			s.MemRowTotals = make([]float64, len(q.MemRowTotals))
		}
		s.Quanta++
		s.Cycles += q.Cycles
		s.Mem = AddMatrix(s.Mem, q.Mem)
		s.Cache = AddMatrix(s.Cache, q.Cache)
		for j, v := range q.MemRowTotals {
			if j < len(s.MemRowTotals) {
				s.MemRowTotals[j] += v
			}
		}
		for j, st := range q.AppStats {
			if j >= len(s.AppStats) {
				break
			}
			a := &s.AppStats[j]
			a.Retired += st.Retired
			a.MemStallCycles += st.MemStallCycles
			a.QuantumHitTime += st.QuantumHitTime
			a.QuantumMissTime += st.QuantumMissTime
			a.QueueingCycles += st.QueueingCycles
			a.MemInterf += st.MemInterf
			a.CacheInterf += st.CacheInterf
		}
	}
	return s
}

// SplitByApp groups a mixed attribution series by its app-name set.
// When runs over different app sets share one tracer (a cluster's
// machines, whose node views prefix each app with its machine, and whose
// slots change app after a migration), their per-quantum snapshots
// interleave in emission order; grouping by the Apps fingerprint
// recovers one coherent series per app set, each summarizable on its
// own. The fingerprint joins app names with "+",
// matching workload.Mix.
func SplitByApp(quanta []QuantumAttribution) map[string][]QuantumAttribution {
	out := map[string][]QuantumAttribution{}
	for _, q := range quanta {
		key := strings.Join(q.Apps, "+")
		out[key] = append(out[key], q)
	}
	return out
}

// CPIStack is one application's cycles-per-instruction decomposition over
// a traced window: compute (everything not memory-stalled), memory time
// the app would also have spent alone, and the two interference
// components the attribution matrix separates.
type CPIStack struct {
	Name string
	// CPI is total cycles / retired instructions (0 when nothing retired).
	CPI float64
	// Fractions of total cycles, summing to 1 when Retired > 0.
	Compute     float64
	MemAlone    float64
	CacheInterf float64
	MemInterf   float64
}

// CPIStacks derives per-app CPI stacks from an aggregate summary. The
// interference components are clamped into the measured memory-stall
// time: attribution charges raw occupancy cycles, which overlapping
// requests can exceed, so each component is capped by what remains of
// the stall budget.
func (s Summary) CPIStacks() []CPIStack {
	out := make([]CPIStack, len(s.AppStats))
	for j, st := range s.AppStats {
		cs := CPIStack{Name: st.Name}
		total := float64(s.Cycles)
		if total > 0 {
			stall := float64(st.MemStallCycles)
			if stall > total {
				stall = total
			}
			mem := st.MemInterf
			if mem > stall {
				mem = stall
			}
			cache := st.CacheInterf
			if cache > stall-mem {
				cache = stall - mem
			}
			cs.Compute = (total - stall) / total
			cs.MemAlone = (stall - mem - cache) / total
			cs.CacheInterf = cache / total
			cs.MemInterf = mem / total
			if st.Retired > 0 {
				cs.CPI = total / float64(st.Retired)
			}
		}
		out[j] = cs
	}
	return out
}

package telemetry

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Strict Prometheus text-format (0.0.4) parser, shared by the exposition
// tests and the serve smoke so a /metrics body that drifts from the
// format is reported as broken, not silently half-read. Every
// non-comment line must be `name{labels} value`, every sample's family
// must be declared by a preceding # TYPE line, TYPE lines must not
// repeat, and counter families must carry the _total suffix.

var (
	promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// A label set is {...} whose quoted values may hold any character,
	// '}' included, with \ escapes.
	promLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[^}"]|"(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|NaN|\+Inf|-Inf)$`)
)

// ParseExposition parses a Prometheus text exposition body strictly,
// returning sample key (name plus rendered label set, exactly as
// exposed) -> value. Any deviation from the format is an error, not a
// skipped line.
func ParseExposition(body string) (map[string]float64, error) {
	types := map[string]string{}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			if len(samples) == 0 && len(types) == 0 {
				continue // wholly empty body (nil registry) is valid
			}
			return nil, fmt.Errorf("telemetry: blank line in exposition body")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("telemetry: malformed TYPE line %q", line)
			}
			name, typ := parts[2], parts[3]
			if !promNameRe.MatchString(name) {
				return nil, fmt.Errorf("telemetry: illegal family name %q", name)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return nil, fmt.Errorf("telemetry: illegal type %q in %q", typ, line)
			}
			if _, dup := types[name]; dup {
				return nil, fmt.Errorf("telemetry: duplicate TYPE line for %s", name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLineRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("telemetry: malformed sample line %q", line)
		}
		base := m[1]
		// Strip summary child suffixes to find the declaring family.
		fam := base
		for _, suf := range []string{"_sum", "_count"} {
			if strings.HasSuffix(base, suf) {
				if _, ok := types[strings.TrimSuffix(base, suf)]; ok {
					fam = strings.TrimSuffix(base, suf)
				}
			}
		}
		if _, ok := types[fam]; !ok {
			return nil, fmt.Errorf("telemetry: sample %q has no TYPE declaration", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: unparseable value in %q: %w", line, err)
		}
		if types[fam] == "counter" && !strings.HasSuffix(fam, "_total") {
			return nil, fmt.Errorf("telemetry: counter family %s lacks _total suffix", fam)
		}
		key := m[1] + m[2]
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("telemetry: duplicate sample %q", key)
		}
		samples[key] = v
	}
	return samples, nil
}

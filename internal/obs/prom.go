package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Counters and gauges emit one sample;
// histograms emit cumulative le-buckets (non-empty ones plus +Inf), _sum
// and _count, with nanosecond observations scaled to seconds — the
// Prometheus base unit — so piccolo's latency series graph directly
// against anything else on a dashboard.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	seen := map[string]bool{}
	for _, s := range r.snapshot() {
		if !seen[s.name] {
			seen[s.name] = true
			if s.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.typeName())
		}
		switch {
		case s.c != nil:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, labelString(s.labels, ""), s.c.Value())
		case s.cf != nil && s.scale != 0:
			fmt.Fprintf(bw, "%s%s %s\n", s.name, labelString(s.labels, ""), formatFloat(float64(s.cf())/s.scale))
		case s.cf != nil:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, labelString(s.labels, ""), s.cf())
		case s.g != nil:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, labelString(s.labels, ""), s.g.Value())
		case s.gf != nil:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, labelString(s.labels, ""), s.gf())
		case s.h != nil:
			writePromHistogram(bw, s)
		}
	}
	return bw.Flush()
}

func (s *series) typeName() string {
	switch {
	case s.c != nil, s.cf != nil:
		return "counter"
	case s.g != nil, s.gf != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

func writePromHistogram(w io.Writer, s *series) {
	snap := s.h.Snapshot()
	scale := s.scale
	if scale == 0 {
		scale = 1
	}
	var cum uint64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		cum += c
		// The bucket's inclusive integer upper bound is exactly its
		// Prometheus le bound (observations are integers).
		le := formatFloat(float64(bucketMax(i)) / scale)
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelString(s.labels, le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelString(s.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", s.name, labelString(s.labels, ""), formatFloat(float64(snap.Sum)/scale))
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, labelString(s.labels, ""), snap.Count)
}

// labelString renders {k="v",...}; a non-empty le appends the
// pre-rendered le="..." bucket-bound label.
func labelString(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// ParsePrometheus reads Prometheus text format back into a flat
// sample map keyed by the sample's full identity (name plus label
// string, exactly as written). It validates the subset WritePrometheus
// emits — comment lines, `name{labels} value` samples, metric-name
// syntax, parseable float values — and is what the CI smoke test uses to
// assert /metrics stays well-formed and counters stay monotone across
// scrapes (cmd/piccolo-serve's load smoke test).
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Split "name{labels} value" / "name value"; label values may
		// contain spaces, so split on the last space.
		cut := strings.LastIndexByte(text, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("line %d: no value: %q", line, text)
		}
		key, valStr := text[:cut], text[cut+1:]
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("line %d: unterminated labels: %q", line, text)
			}
			name = key[:i]
		}
		if !promNameRE.MatchString(name) {
			return nil, fmt.Errorf("line %d: bad metric name %q", line, name)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", line, valStr, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", line, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

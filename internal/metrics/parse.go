package metrics

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Series is one parsed sample line of an exposition, with its labels in
// source order.
type Series struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed and validated exposition page.
type Scrape struct {
	Types  map[string]Kind
	Series []Series
}

// Value returns the value of the series with the given name and exact
// label set ("k=v" pairs, order-insensitive). ok is false if absent.
func (s *Scrape) Value(name string, labels ...string) (float64, bool) {
	want := map[string]string{}
	for _, kv := range labels {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return 0, false
		}
		want[k] = v
	}
	for _, ser := range s.Series {
		if ser.Name != name || len(ser.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if ser.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return ser.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample of the family (across all label tuples).
func (s *Scrape) Sum(name string) float64 {
	var total float64
	for _, ser := range s.Series {
		if ser.Name == name {
			total += ser.Value
		}
	}
	return total
}

// Parse validates a Prometheus text exposition page and returns its
// series. It enforces the invariants a scraper relies on: every sample
// belongs to a family announced by a # TYPE line, HELP/TYPE come before
// the family's samples, sample lines are syntactically well formed,
// values parse as floats, histograms carry cumulative buckets ending in
// le="+Inf" with consistent _count, and no duplicate series appear.
// Tests and the perf ledger use it as the "scrapes cleanly" gate.
func Parse(data []byte) (*Scrape, error) {
	sc := &Scrape{Types: map[string]Kind{}}
	seen := map[string]bool{}
	sawSamples := map[string]bool{}
	scanner := bufio.NewScanner(strings.NewReader(string(data)))
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("metrics: line %d: malformed TYPE line %q", lineNo, line)
			}
			name, kind := fields[2], Kind(fields[3])
			switch kind {
			case KindCounter, KindGauge, KindHistogram:
			default:
				return nil, fmt.Errorf("metrics: line %d: unknown type %q", lineNo, fields[3])
			}
			if _, dup := sc.Types[name]; dup {
				return nil, fmt.Errorf("metrics: line %d: duplicate TYPE for %q", lineNo, name)
			}
			if sawSamples[name] {
				return nil, fmt.Errorf("metrics: line %d: TYPE for %q after its samples", lineNo, name)
			}
			sc.Types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP and comments
		}
		ser, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		fam := familyOf(ser.Name, sc.Types)
		if fam == "" {
			return nil, fmt.Errorf("metrics: line %d: sample %q has no TYPE header", lineNo, ser.Name)
		}
		sawSamples[fam] = true
		key := ser.Name + "\x00" + labelKey(ser.Labels)
		if seen[key] {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %q{%s}", lineNo, ser.Name, labelKey(ser.Labels))
		}
		seen[key] = true
		sc.Series = append(sc.Series, ser)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if err := sc.checkHistograms(); err != nil {
		return nil, err
	}
	return sc, nil
}

// familyOf maps a sample name to its announced family: exact match, or
// the histogram's _bucket/_sum/_count suffixes.
func familyOf(name string, types map[string]Kind) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == KindHistogram {
			return base
		}
	}
	return ""
}

// parseSample parses one `name{l="v",...} value` line.
func parseSample(line string) (Series, error) {
	ser := Series{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return ser, fmt.Errorf("malformed sample %q", line)
	}
	ser.Name = rest[:i]
	if !validName(ser.Name) {
		return ser, fmt.Errorf("invalid metric name %q", ser.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip escaped char
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return ser, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], ser.Labels); err != nil {
			return ser, err
		}
		rest = rest[end+1:]
	}
	val := strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return ser, fmt.Errorf("bad sample value %q", val)
	}
	ser.Value = v
	return ser, nil
}

// parseLabels parses `k="v",k2="v2"` into m.
func parseLabels(s string, m map[string]string) error {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !validName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %q value not quoted", name)
		}
		var sb strings.Builder
		j := 1
		closed := false
		for ; j < len(s); j++ {
			if s[j] == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case 'n':
					sb.WriteByte('\n')
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				default:
					return fmt.Errorf("bad escape in label %q", name)
				}
				j++
				continue
			}
			if s[j] == '"' {
				closed = true
				break
			}
			sb.WriteByte(s[j])
		}
		if !closed {
			return fmt.Errorf("unterminated label value for %q", name)
		}
		if _, dup := m[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		m[name] = sb.String()
		s = s[j+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func labelKey(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s,", k, m[k])
	}
	return sb.String()
}

// checkHistograms verifies every histogram family's bucket series are
// cumulative, terminate in le="+Inf", and agree with _count.
func (sc *Scrape) checkHistograms() error {
	type hist struct {
		buckets []Series
		count   map[string]float64
	}
	hists := map[string]*hist{}
	get := func(fam, labels string) *hist {
		h, ok := hists[fam]
		if !ok {
			h = &hist{count: map[string]float64{}}
			hists[fam] = h
		}
		_ = labels
		return h
	}
	for _, ser := range sc.Series {
		base := strings.TrimSuffix(ser.Name, "_bucket")
		if base != ser.Name && sc.Types[base] == KindHistogram {
			get(base, "").buckets = append(get(base, "").buckets, ser)
			continue
		}
		base = strings.TrimSuffix(ser.Name, "_count")
		if base != ser.Name && sc.Types[base] == KindHistogram {
			get(base, "").count[childKey(ser.Labels, "")] = ser.Value
		}
	}
	for fam, h := range hists {
		// Group buckets per child (label set minus "le").
		perChild := map[string][]Series{}
		for _, b := range h.buckets {
			perChild[childKey(b.Labels, "le")] = append(perChild[childKey(b.Labels, "le")], b)
		}
		for child, buckets := range perChild {
			prev := -1.0
			infSeen := false
			var infVal float64
			for _, b := range buckets {
				if b.Value < prev {
					return fmt.Errorf("metrics: histogram %s buckets not cumulative", fam)
				}
				prev = b.Value
				if b.Labels["le"] == "+Inf" {
					infSeen, infVal = true, b.Value
				}
			}
			if !infSeen {
				return fmt.Errorf("metrics: histogram %s missing le=\"+Inf\" bucket", fam)
			}
			if count, ok := h.count[child]; ok && count != infVal {
				return fmt.Errorf("metrics: histogram %s: +Inf bucket %v != _count %v", fam, infVal, count)
			}
		}
	}
	return nil
}

// childKey renders a label set (minus one excluded label) as a stable key.
func childKey(labels map[string]string, exclude string) string {
	m := map[string]string{}
	for k, v := range labels {
		if k != exclude {
			m[k] = v
		}
	}
	return labelKey(m)
}

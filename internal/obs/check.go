package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// CheckExposition validates a Prometheus text-format (0.0.4) document:
// UTF-8, line syntax, metric and label name grammar, label-value escaping,
// known TYPE declarations, duplicate series, and histogram coherence
// (parseable le bounds, cumulative bucket counts, a +Inf bucket
// matching _count). It is the pure-Go validator behind the exposition
// tests and the CI smoke job — a scrape that fails here would fail a
// real Prometheus server's parser too.
func CheckExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	types := map[string]string{}       // family -> declared type
	seen := map[string]struct{}{}      // full series key -> present
	hist := map[string]*histCheck{}    // histogram family -> bucket audit
	sawSample := map[string]struct{}{} // family -> a sample appeared
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if !utf8.ValidString(line) {
			return fmt.Errorf("line %d: invalid UTF-8", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line, types, sawSample); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(s.name, types)
		if s.exemplar != nil {
			// OpenMetrics allows exemplars on histogram buckets and
			// counters only; this repository emits them on buckets.
			bucketOK := types[fam] == "histogram" && strings.HasSuffix(s.name, "_bucket")
			if !bucketOK && types[fam] != "counter" {
				return fmt.Errorf("line %d: exemplar on non-bucket, non-counter sample %s", lineNo, s.name)
			}
		}
		sawSample[fam] = struct{}{}
		key := s.name + "\xfe" + s.labelKey(true)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, line)
		}
		seen[key] = struct{}{}
		if types[fam] == "histogram" {
			h := hist[fam]
			if h == nil {
				h = &histCheck{series: map[string]*histSeries{}}
				hist[fam] = h
			}
			if err := h.record(fam, s); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, h := range hist {
		if err := h.verify(fam); err != nil {
			return err
		}
	}
	return nil
}

// checkComment validates # HELP / # TYPE lines; other comments pass.
func checkComment(line string, types map[string]string, sawSample map[string]struct{}) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare "#" comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q for %q", typ, name)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if _, ok := sawSample[name]; ok {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		types[name] = typ
	}
	return nil
}

// sample is one parsed exposition line.
type sample struct {
	name     string
	labels   [][2]string // name, decoded value — in input order
	value    float64
	exemplar *exemplarSample // OpenMetrics trailer, when present
}

// exemplarSample is a parsed `# {labels} value [timestamp]` trailer.
type exemplarSample struct {
	labels [][2]string
	value  float64
}

// labelKey joins labels into a comparison key; dropLE strips the le
// label so histogram buckets of one series group together. Labels are
// sorted: {a="1",b="2"} and {b="2",a="1"} name the same series.
func (s *sample) labelKey(keepLE bool) string {
	pairs := make([]string, 0, len(s.labels))
	for _, l := range s.labels {
		if !keepLE && l[0] == "le" {
			continue
		}
		pairs = append(pairs, l[0]+"="+l[1])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\xff")
}

// le returns the decoded le label and whether it is present.
func (s *sample) le() (string, bool) {
	for _, l := range s.labels {
		if l[0] == "le" {
			return l[1], true
		}
	}
	return "", false
}

// parseSample parses `name{labels} value [timestamp]`, with an optional
// OpenMetrics exemplar trailer (`# {labels} value [timestamp]`).
func parseSample(line string) (*sample, error) {
	s := &sample{}
	i := 0
	for i < len(line) && isNameByte(line[i], i == 0) {
		i++
	}
	s.name = line[:i]
	if !validName(s.name) {
		return nil, fmt.Errorf("bad metric name in %q", line)
	}
	if i < len(line) && line[i] == '{' {
		rest, labels, err := parseLabels(line[i:])
		if err != nil {
			return nil, fmt.Errorf("%w in %q", err, line)
		}
		s.labels = labels
		line = rest
	} else {
		line = line[i:]
	}
	// The exemplar separator is only looked for past the label set, so a
	// label value containing " # " cannot be misread as a trailer.
	if idx := strings.Index(line, " # "); idx >= 0 {
		ex, err := parseExemplar(line[idx+3:])
		if err != nil {
			return nil, fmt.Errorf("%w in %q", err, line)
		}
		s.exemplar = ex
		line = line[:idx]
	}
	fields := strings.Fields(line)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("expected value [timestamp] after series, got %q", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad sample value %q", fields[0])
	}
	s.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes a {name="value",...} block, decoding the format's
// three escapes and rejecting any other backslash sequence. It returns
// the unconsumed remainder of the line.
func parseLabels(in string) (rest string, labels [][2]string, err error) {
	i := 1 // past '{'
	names := map[string]struct{}{}
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == ',') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return in[i+1:], labels, nil
		}
		start := i
		for i < len(in) && isNameByte(in[i], i == start) {
			i++
		}
		name := in[start:i]
		if !validName(name) {
			return "", nil, fmt.Errorf("bad label name %q", name)
		}
		if _, dup := names[name]; dup {
			return "", nil, fmt.Errorf("duplicate label %q", name)
		}
		names[name] = struct{}{}
		if i >= len(in) || in[i] != '=' {
			return "", nil, fmt.Errorf("missing '=' after label %q", name)
		}
		i++
		if i >= len(in) || in[i] != '"' {
			return "", nil, fmt.Errorf("unquoted value for label %q", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return "", nil, fmt.Errorf("unterminated value for label %q", name)
			}
			c := in[i]
			switch c {
			case '"':
				i++
				goto done
			case '\\':
				if i+1 >= len(in) {
					return "", nil, fmt.Errorf("dangling backslash in label %q", name)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, fmt.Errorf("invalid escape \\%c in label %q", in[i+1], name)
				}
				i += 2
			case '\n':
				return "", nil, fmt.Errorf("raw newline in label %q", name)
			default:
				val.WriteByte(c)
				i++
			}
		}
	done:
		labels = append(labels, [2]string{name, val.String()})
	}
}

// parseExemplar parses the OpenMetrics trailer after "# ": a label set,
// a value, and an optional float timestamp. The label set must obey the
// spec's 128-rune budget across names and values combined.
func parseExemplar(in string) (*exemplarSample, error) {
	if len(in) == 0 || in[0] != '{' {
		return nil, fmt.Errorf("exemplar needs a {label} set, got %q", in)
	}
	rest, labels, err := parseLabels(in)
	if err != nil {
		return nil, fmt.Errorf("exemplar labels: %w", err)
	}
	runes := 0
	for _, l := range labels {
		runes += len([]rune(l[0])) + len([]rune(l[1]))
	}
	if runes > 128 {
		return nil, fmt.Errorf("exemplar label set is %d runes, exceeding the 128-rune budget", runes)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("expected exemplar value [timestamp], got %q", rest)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
	}
	return &exemplarSample{labels: labels, value: v}, nil
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c == ':':
		return true // recording-rule names; valid in metric names
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyOf strips a histogram/summary child suffix when the base name
// has a TYPE declaration, so name_bucket rows audit against name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, declared := types[base]; declared && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

// histSeries audits one histogram series (one label set) of a family.
type histSeries struct {
	buckets []histBucket
	count   float64
	hasCnt  bool
}

type histBucket struct {
	le  float64
	cum float64
}

type histCheck struct {
	series map[string]*histSeries
}

func (h *histCheck) at(key string) *histSeries {
	s := h.series[key]
	if s == nil {
		s = &histSeries{}
		h.series[key] = s
	}
	return s
}

func (h *histCheck) record(fam string, s *sample) error {
	key := s.labelKey(false)
	switch {
	case s.name == fam+"_bucket":
		le, ok := s.le()
		if !ok {
			return fmt.Errorf("%s_bucket without le label", fam)
		}
		bound, err := parseFloat(le)
		if err != nil {
			return fmt.Errorf("unparseable le %q on %s", le, fam)
		}
		h.at(key).buckets = append(h.at(key).buckets, histBucket{le: bound, cum: s.value})
	case s.name == fam+"_count":
		hs := h.at(key)
		hs.count, hs.hasCnt = s.value, true
	case s.name == fam+"_sum", s.name == fam:
		// sum needs no audit; a bare histogram-family sample is unusual
		// but not invalid.
	}
	return nil
}

func (h *histCheck) verify(fam string) error {
	for key, hs := range h.series {
		if len(hs.buckets) == 0 {
			continue
		}
		bs := append([]histBucket(nil), hs.buckets...)
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s{%s}: no +Inf bucket", fam, key)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].cum < bs[i-1].cum {
				return fmt.Errorf("histogram %s{%s}: bucket counts decrease at le=%v", fam, key, bs[i].le)
			}
		}
		if hs.hasCnt && last.cum != hs.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %v != count %v", fam, key, last.cum, hs.count)
		}
	}
	return nil
}

// Package obstest checks Prometheus text exposition for tests: the
// obs renderer's golden file and the daemon's /metrics output run
// through ValidateExposition. It shares no code with the renderer in
// internal/obs, so a fault in one cannot mask the same fault in the
// other.
package obstest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks that r is well-formed Prometheus text
// exposition format 0.0.4, line by line, with the semantic checks a
// scraper relies on. It is the hand-rolled stand-in for a client
// library's parser (the module takes no dependencies) and is what CI
// runs the daemon's /metrics output through.
//
// Enforced rules:
//   - comment lines are `# HELP <name> <text>`, `# TYPE <name> <type>`
//     (counter|gauge|histogram|summary|untyped), or free-form `#` text
//   - HELP and TYPE appear at most once per family, TYPE before any
//     of the family's samples, and a family's lines are contiguous
//   - sample lines are `name[{labels}] value [timestamp]` with legal
//     metric/label names, correctly quoted/escaped label values, a
//     parseable value, and no duplicate series
//   - every sample belongs to a declared family (histogram samples
//     use the _bucket/_sum/_count suffixes, _bucket with an le label)
//   - counter and histogram sample values are non-negative
//   - per histogram series: le parses as a float, strictly increases,
//     cumulative counts never decrease, the +Inf bucket is present,
//     and _count equals the +Inf bucket
func ValidateExposition(r io.Reader) error {
	v := &validator{
		types:  make(map[string]string),
		helped: make(map[string]bool),
		closed: make(map[string]bool),
		series: make(map[string]bool),
		hists:  make(map[string]*histCheck),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if err := v.line(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return v.finish()
}

// histCheck accumulates one histogram family's series for the
// end-of-family consistency checks, grouped by base label set.
type histCheck struct {
	family string
	groups map[string]*histGroup
}

type histGroup struct {
	les    []float64
	counts []float64
	count  float64
	hasCnt bool
	hasSum bool
}

type validator struct {
	types   map[string]string // family -> declared type
	helped  map[string]bool
	closed  map[string]bool // families whose block has ended
	series  map[string]bool // name + canonical labels seen
	current string          // family of the open block, "" at start
	hists   map[string]*histCheck
}

func (v *validator) line(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	if strings.HasPrefix(s, "#") {
		return v.comment(s)
	}
	return v.sample(s)
}

func (v *validator) comment(s string) error {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment
	}
	if len(fields) < 3 || !validName(fields[2], true) {
		return fmt.Errorf("malformed %s line %q", fields[1], s)
	}
	name := fields[2]
	if err := v.enter(name); err != nil {
		return err
	}
	if fields[1] == "HELP" {
		if v.helped[name] {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		v.helped[name] = true
		return nil
	}
	if len(fields) != 4 {
		return fmt.Errorf("malformed TYPE line %q", s)
	}
	typ := fields[3]
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown metric type %q for %s", typ, name)
	}
	if _, dup := v.types[name]; dup {
		return fmt.Errorf("duplicate TYPE for %s", name)
	}
	v.types[name] = typ
	if typ == "histogram" {
		v.hists[name] = &histCheck{family: name, groups: make(map[string]*histGroup)}
	}
	return nil
}

// enter switches the open family block, enforcing grouping: once a
// family's block has been left, no further lines may belong to it.
func (v *validator) enter(name string) error {
	if v.current == name {
		return nil
	}
	if v.current != "" {
		v.closed[v.current] = true
		if err := v.checkHist(v.current); err != nil {
			return err
		}
	}
	if v.closed[name] {
		return fmt.Errorf("lines for %s are not contiguous", name)
	}
	v.current = name
	return nil
}

func (v *validator) sample(s string) error {
	name, rest, err := splitName(s)
	if err != nil {
		return err
	}
	var labels []label
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabelSet(rest[1:])
		if err != nil {
			return fmt.Errorf("sample %s: %w", name, err)
		}
	}
	rest = strings.TrimLeft(rest, " ")
	valStr, tsStr, _ := strings.Cut(rest, " ")
	if valStr == "" {
		return fmt.Errorf("sample %s: missing value", name)
	}
	val, err := parseValue(valStr)
	if err != nil {
		return fmt.Errorf("sample %s: bad value %q", name, valStr)
	}
	if tsStr != "" {
		if _, err := strconv.ParseInt(strings.TrimSpace(tsStr), 10, 64); err != nil {
			return fmt.Errorf("sample %s: bad timestamp %q", name, tsStr)
		}
	}

	family, suffix := name, ""
	if _, ok := v.types[name]; !ok {
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name && (v.types[base] == "histogram" || v.types[base] == "summary") {
				family, suffix = base, sfx
				break
			}
		}
	}
	typ, declared := v.types[family]
	if !declared {
		return fmt.Errorf("sample %s has no preceding TYPE declaration", name)
	}
	if (suffix == "_bucket" && typ != "histogram") ||
		(suffix == "" && (typ == "histogram" || typ == "summary")) {
		return fmt.Errorf("sample %s does not match %s family %s", name, typ, family)
	}
	if err := v.enter(family); err != nil {
		return err
	}

	sort.Slice(labels, func(i, j int) bool { return labels[i].name < labels[j].name })
	key := name + labelKey(labels)
	if v.series[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	v.series[key] = true

	if (typ == "counter" || suffix == "_bucket" || suffix == "_count") && val < 0 {
		return fmt.Errorf("series %s: negative value %v", key, val)
	}
	if typ == "histogram" {
		return v.histSample(family, suffix, labels, val)
	}
	return nil
}

func (v *validator) histSample(family, suffix string, labels []label, val float64) error {
	hc := v.hists[family]
	var le string
	base := make([]label, 0, len(labels))
	for _, l := range labels {
		if l.name == "le" {
			le = l.value
			continue
		}
		base = append(base, l)
	}
	gkey := labelKey(base)
	g := hc.groups[gkey]
	if g == nil {
		g = &histGroup{}
		hc.groups[gkey] = g
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("histogram %s bucket without le label", family)
		}
		ub, err := parseValue(le)
		if err != nil {
			return fmt.Errorf("histogram %s: bad le %q", family, le)
		}
		g.les = append(g.les, ub)
		g.counts = append(g.counts, val)
	case "_sum":
		g.hasSum = true
	case "_count":
		g.count, g.hasCnt = val, true
	default:
		return fmt.Errorf("histogram %s has plain sample", family)
	}
	return nil
}

// checkHist runs the end-of-block consistency checks for a histogram
// family, if name is one.
func (v *validator) checkHist(name string) error {
	hc := v.hists[name]
	if hc == nil {
		return nil
	}
	for gkey, g := range hc.groups {
		id := name + gkey
		if len(g.les) == 0 {
			return fmt.Errorf("histogram %s: no buckets", id)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %s: le not increasing at %v", id, g.les[i])
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("histogram %s: bucket counts decrease at le=%v", id, g.les[i])
			}
		}
		if !math.IsInf(g.les[len(g.les)-1], 1) {
			return fmt.Errorf("histogram %s: missing +Inf bucket", id)
		}
		if !g.hasSum {
			return fmt.Errorf("histogram %s: missing _sum", id)
		}
		if !g.hasCnt {
			return fmt.Errorf("histogram %s: missing _count", id)
		}
		if g.count != g.counts[len(g.counts)-1] {
			return fmt.Errorf("histogram %s: _count %v != +Inf bucket %v", id, g.count, g.counts[len(g.counts)-1])
		}
	}
	delete(v.hists, name)
	return nil
}

func (v *validator) finish() error {
	if v.current != "" {
		if err := v.checkHist(v.current); err != nil {
			return fmt.Errorf("at end of input: %w", err)
		}
	}
	return nil
}

// splitName splits a sample line into the metric name and the rest
// (label block and/or value).
func splitName(s string) (name, rest string, err error) {
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' {
		i++
	}
	name = s[:i]
	if !validName(name, true) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, s[i:], nil
}

// parseLabelSet parses `name="value",…}` (the opening brace already
// consumed) and returns the labels plus the remainder after '}'.
func parseLabelSet(s string) ([]label, string, error) {
	var out []label
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		lname := strings.TrimSpace(s[:eq])
		if !validName(lname, false) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		s = strings.TrimLeft(s[eq+1:], " ")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", lname, s[i+1])
				}
				i++
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("label %s: unterminated value", lname)
		}
		out = append(out, label{lname, val.String()})
		s = s[i+1:]
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

// parseValue parses a sample value: a Go float or the canonical
// +Inf/-Inf/NaN spellings.
func parseValue(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// label is one parsed label pair.
type label struct{ name, value string }

// labelKey renders a sorted label set as {a="b",c="d"} (empty for no
// labels): the canonical series identity, and how errors name it.
func labelKey(ls []label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.name, l.value)
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether s is a legal metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*), or with colon unset a legal label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (colon && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample's
// value keyed by its series, the metric name plus its label set with
// the labels sorted by name (`name{a="1",b="2"}`).
type scrape map[string]float64

// parseScrape parses the text exposition format: comment and blank
// lines are skipped, every other line is `series value` with an
// optional trailing timestamp.
func parseScrape(text string) (scrape, error) {
	s := scrape{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value after %s", n+1, key)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		s[key] = v
	}
	return s, nil
}

// parseSeries splits a sample line into its canonical series key and
// the remainder (value and timestamp).
func parseSeries(line string) (key, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", "", fmt.Errorf("no series name in %q", line)
	}
	name := line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	var labels []string
	j := i + 1
	for {
		for j < len(line) && (line[j] == ' ' || line[j] == ',') {
			j++
		}
		if j < len(line) && line[j] == '}' {
			j++
			break
		}
		eq := strings.IndexByte(line[j:], '=')
		if eq < 0 || j+eq+1 >= len(line) || line[j+eq+1] != '"' {
			return "", "", fmt.Errorf("bad label set in %q", line)
		}
		lname := line[j : j+eq]
		j += eq + 2
		var val strings.Builder
		for {
			if j >= len(line) {
				return "", "", fmt.Errorf("unterminated label value in %q", line)
			}
			c := line[j]
			if c == '"' {
				j++
				break
			}
			if c == '\\' && j+1 < len(line) {
				j++
				switch line[j] {
				case 'n':
					c = '\n'
				default:
					c = line[j]
				}
			}
			val.WriteByte(c)
			j++
		}
		labels = append(labels, lname, val.String())
	}
	return series(name, labels...), line[j:], nil
}

// series renders the canonical key of a sample: labels are name/value
// pairs, sorted by name in the key.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// counterDelta is a counter's increase between two scrapes; a series absent
// from a scrape counts as 0 there.
func counterDelta(before, after scrape, name string, labels ...string) float64 {
	k := series(name, labels...)
	return after[k] - before[k]
}

// familyDelta sums the increase of every series of a counter family.
func familyDelta(before, after scrape, name string) float64 {
	return familySum(after, name) - familySum(before, name)
}

// familySum sums the current value of every series of a family.
func familySum(s scrape, name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// histDelta is a histogram's observed sum and count between two
// scrapes, for one label set.
func histDelta(before, after scrape, name string, labels ...string) (sum, count float64) {
	return counterDelta(before, after, name+"_sum", labels...), counterDelta(before, after, name+"_count", labels...)
}

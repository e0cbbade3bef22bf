// Package benchfmt defines the committed benchmark-capture format — the
// BENCH_<sha>.json files `make bench` produces: a stable JSON document
// mapping benchmark name → metrics (ns/op, B/op, allocs/op, plus any
// custom ReportMetric units), annotated with the platform and free-form
// labels. cmd/benchjson writes captures from `go test -bench` output;
// cmd/benchdiff compares two of them.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Document is one benchmark capture. Map keys are benchmark names with
// the GOMAXPROCS suffix stripped; encoding/json emits them sorted, so
// two captures of the same tree differ only where the numbers do.
type Document struct {
	Goos       string                        `json:"goos,omitempty"`
	Goarch     string                        `json:"goarch,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	Labels     map[string]string             `json:"labels,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// procSuffix is the GOMAXPROCS decoration `go test` appends to each
// benchmark name (-8 etc.); stripping it keeps captures comparable
// across machines.
var procSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output and builds a Document. Lines
// that are not platform headers or benchmark result rows are ignored,
// so the full `go test` stdout can be piped through unfiltered. A row
// ends at its first value that is not a finite number, since JSON has
// no NaN or Inf, and invalid UTF-8 becomes U+FFFD as JSON would make
// it: every Document Parse returns encodes and decodes unchanged.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.ToValidUTF8(sc.Text(), "\uFFFD")
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		runs, ok := parseFinite(fields[1])
		if !ok {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		metrics := map[string]float64{"runs": runs}
		for i := 2; i+1 < len(fields); i += 2 {
			v, ok := parseFinite(fields[i])
			if !ok {
				break
			}
			metrics[fields[i+1]] = v
		}
		doc.Benchmarks[name] = metrics
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parseFinite parses s as a finite float64.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// ReadFile loads a committed capture (a BENCH_<sha>.json file).
func ReadFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

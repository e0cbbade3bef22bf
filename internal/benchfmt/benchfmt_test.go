package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: dbabandits/internal/mab
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScoresBatch/sm-8         	   39122	     30437 ns/op	      2052 B/op	       1 allocs/op
BenchmarkScoresBatchParallel/4-8  	     322	    379713 ns/op	       230.0 arms	        83.00 dim	         4.000 workers	    2590 B/op	      13 allocs/op
some unrelated line
PASS
ok  	dbabandits/internal/mab	0.576s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("platform header not parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	// The GOMAXPROCS suffix is stripped; the sub-benchmark path is kept.
	m, ok := doc.Benchmarks["BenchmarkScoresBatchParallel/4"]
	if !ok {
		t.Fatalf("sub-benchmark name mangled: %v", doc.Benchmarks)
	}
	if m["ns/op"] != 379713 || m["workers"] != 4 || m["runs"] != 322 {
		t.Fatalf("metrics wrong: %v", m)
	}
	if doc.Benchmarks["BenchmarkScoresBatch/sm"]["allocs/op"] != 1 {
		t.Fatalf("allocs/op wrong: %v", doc.Benchmarks["BenchmarkScoresBatch/sm"])
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	doc.Labels = map[string]string{"ridge": "sm"}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels["ridge"] != "sm" {
		t.Fatalf("labels lost: %v", got.Labels)
	}
	if got.Benchmarks["BenchmarkScoresBatchParallel/4"]["ns/op"] != 379713 {
		t.Fatalf("metrics lost: %v", got.Benchmarks)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// FuzzBenchfmtParse feeds Parse arbitrary text, seeded with the
// committed `go test -bench` excerpt above. Parse must never panic, and
// every document it accepts must survive cmd/benchjson's JSON encoding
// and ReadFile's decoding unchanged.
func FuzzBenchfmtParse(f *testing.F) {
	f.Add(sampleBenchOutput)
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		var got Document
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("encoded document does not decode: %v", err)
		}
		if !reflect.DeepEqual(&got, doc) {
			t.Fatalf("JSON round trip changed the document:\n%+v\nvs\n%+v", got, *doc)
		}
	})
}

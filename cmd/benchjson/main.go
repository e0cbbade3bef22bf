// Command benchjson converts `go test -bench` output on stdin into the
// stable JSON capture format of internal/benchfmt (benchmark name →
// metrics: ns/op, B/op, allocs/op, plus any custom ReportMetric units),
// so perf numbers can be committed as BENCH_<sha>.json files and diffed
// across commits with cmd/benchdiff. See the `make bench` target and
// the README's Performance section.
//
// The GOMAXPROCS suffix (-8 etc.) is stripped from benchmark names and
// map keys are emitted sorted, so two captures of the same tree differ
// only where the numbers do.
//
// Repeatable -label key=value flags annotate the capture (emitted under
// "labels"); `make bench` uses them to record the ridge backend the
// recommend-loop benchmarks ran under, e.g.
//
//	go test -bench ... | benchjson -label ridge=sm > BENCH_abc1234.json
package main

import (
	"encoding/json"
	"flag"
	"os"

	"dbabandits/internal/benchfmt"
	"dbabandits/internal/cli"
)

func main() {
	labels := cli.Labels(flag.CommandLine)
	flag.Parse()
	doc, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		cli.Fatal("benchjson", err)
	}
	doc.Labels = labels()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		cli.Fatal("benchjson", err)
	}
}

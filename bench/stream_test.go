package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestStreamTextSeeded(t *testing.T) {
	ids, err := templateIDs()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, id := range ids {
		known[strconv.Itoa(id)] = true
	}
	a := streamText(1, 40, 20, ids)
	if b := streamText(1, 40, 20, ids); a != b {
		t.Fatal("the same seed generated different streams")
	}
	if c := streamText(2, 40, 20, ids); a == c {
		t.Fatal("seeds 1 and 2 generated the same stream")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != 40 {
		t.Fatalf("%d windows, want 40", len(lines))
	}
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) != 20 {
			t.Fatalf("window %d has %d ids, want 20", i+1, len(f))
		}
		for _, id := range f {
			if !known[id] {
				t.Fatalf("window %d: %s is not a template id", i+1, id)
			}
		}
	}
}

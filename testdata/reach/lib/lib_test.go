package lib

import "testing"

func TestDebug(t *testing.T) {
	if New(Options{Debug: true}) != 0 || Unused() != 1 {
		t.Fatal("lib")
	}
}

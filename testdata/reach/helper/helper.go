// Package helper stands for a test-helper package: only _test.go files
// import it, so its reference to lib.Helped does not reach it.
package helper

import "reach/lib"

// Two calls lib.Helped.
func Two() int { return lib.Helped() }

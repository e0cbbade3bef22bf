// Package lib holds one declaration for each case of the reachability
// check.
package lib

// Unused is an exported func that nothing references: reported.
func Unused() int { return 1 }

// Helped is referenced only by package helper, which only tests import:
// reported.
func Helped() int { return 2 }

// Facade is referenced by nothing either, but the test allowlists it.
func Facade() {}

// Options is an options struct. Size is set by cmd; Debug is read here
// but set only by lib_test.go: reported.
type Options struct {
	Size  int
	Debug bool
}

// New reads both options.
func New(o Options) int {
	if o.Debug {
		return 0
	}
	return o.Size
}

// Shape is the interface through which Area is reached.
type Shape interface{ Area() float64 }

// Square's Area is called only through Shape; its String only by fmt.
type Square struct{ Side float64 }

// Area is reached through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is reached because fmt calls it.
func (s Square) String() string { return "square" }

// Total sums the areas of shapes.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

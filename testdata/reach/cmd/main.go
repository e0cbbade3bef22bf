// Command cmd is the fixture's one non-test caller of package lib.
package main

import (
	"fmt"

	"reach/lib"
)

func main() {
	fmt.Println(lib.New(lib.Options{Size: 3}), lib.Total([]lib.Shape{lib.Square{Side: 2}}))
}

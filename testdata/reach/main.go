// Command reach is the reachability census's fixture: the census must flag
// Unreached and nothing else.
package main

type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is called only through the shape interface.
func (s square) Area() float64 { return s.side * s.side }

func main() {
	println(reached(square{side: 2}))
}

func reached(s shape) float64 { return s.Area() }

// Unreached is exported, and nothing calls it.
func Unreached() {}

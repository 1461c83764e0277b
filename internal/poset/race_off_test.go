//go:build !race

package poset

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

//go:build race

package poset

// raceEnabled reports whether the race detector is compiled in; the
// allocation pin skips under it (the detector makes sync.Pool drop what it
// is given at random, so a pooled walk's scratch is sometimes made anew).
const raceEnabled = true

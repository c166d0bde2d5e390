//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops items at random, so allocation pins cannot hold.
const raceEnabled = true

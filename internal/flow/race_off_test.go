//go:build !race

package flow

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

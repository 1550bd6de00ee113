//go:build race

package engine

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count assertions are meaningless under it.
const raceEnabled = true

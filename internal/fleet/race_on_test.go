//go:build race

package fleet

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random, so allocation counts vary from run to run.
const raceEnabled = true

//go:build race

package fanout

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put into it, so allocation counts are not the production ones.
const raceEnabled = true

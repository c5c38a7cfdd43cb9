//go:build race

package runner

// The race detector makes sync.Pool drop entries at random, so allocation
// counts taken under it are not the program's.
func init() { raceEnabled = true }

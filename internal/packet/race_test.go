//go:build race

package packet

// raceEnabled: under the race detector sync.Pool drops a quarter of Puts
// at random, by design.
const raceEnabled = true

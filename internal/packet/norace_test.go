//go:build !race

package packet

const raceEnabled = false

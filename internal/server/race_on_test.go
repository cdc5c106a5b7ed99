//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a quarter of its puts.
const raceEnabled = true

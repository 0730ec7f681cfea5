//go:build race

package core

// raceEnabled reports that the race detector is active; under -race sync.Pool
// deliberately drops items to widen race coverage, so steady-state allocation
// tests are meaningless and skip themselves.
const raceEnabled = true

//go:build race

package core

// raceEnabled reports that the race detector is active; under -race sync.Pool
// deliberately drops items to widen race coverage, so a plan's count of
// allocations, which includes the sorts of data.Argsort's pooled buffers, is
// not steady and TestPlanSteadyStateAllocs skips itself.
const raceEnabled = true

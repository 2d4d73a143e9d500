//go:build race

package runtime

// raceDetectorEnabled mirrors the stdlib's internal/race.Enabled: under
// -race sync.Pool drops a quarter of what is Put, so a gate on a path
// that recycles through the run's pools (waiters, deques, pfor nodes and
// batches) still runs its rounds there but skips the allocation count.
const raceDetectorEnabled = true

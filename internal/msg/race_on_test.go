//go:build race

package msg

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, which would break the zero-alloc proofs.
const raceEnabled = true

//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so a guard that counts on a pooled buffer coming back warm
// cannot hold.
const raceEnabled = true

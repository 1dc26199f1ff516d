//go:build race

package server

// raceEnabled reports a -race build. sync.Pool drops a share of its Puts
// at random there, so pooled paths allocate and alloc pins do not hold.
const raceEnabled = true

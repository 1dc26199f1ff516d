//go:build race

package revalidate_test

// raceEnabled reports a -race build. sync.Pool drops a share of its Puts
// at random there, so pooled paths allocate and alloc budgets do not hold.
const raceEnabled = true

package revalidate

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// batchWorkers resolves a requested worker count against a batch size:
// workers <= 0 means one worker per logical CPU, and the pool never
// exceeds the number of items.
func batchWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// validateAll runs validate(i) for every slot i in [0, n) on a pool of
// workers and returns one verdict per slot plus the batch's work totals.
// Workers draw slots from one shared atomic counter until the batch is
// drained, so uneven per-document cost balances across the pool without a
// queue. Each slot runs under a panic guard (a panic becomes a *PanicError
// verdict for that slot only); once ctx is done, every unclaimed slot gets
// the context's cause instead. Each worker sums its slots' Stats locally
// and merges them into the total with Add under one mutex, taken once per
// worker per batch. With one worker everything runs on the calling
// goroutine.
func validateAll(ctx context.Context, n, workers int, validate func(i int) (Stats, error)) ([]error, Stats) {
	if n == 0 {
		return nil, Stats{}
	}
	errs := make([]error, n)
	done := ctx.Done()
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total Stats
	)
	body := func() {
		var local Stats
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			if done != nil && ctx.Err() != nil {
				errs[i] = context.Cause(ctx)
				continue
			}
			st, err := guardValidate(func() (Stats, error) { return validate(i) })
			errs[i] = err
			local.Add(st)
		}
		mu.Lock()
		total.Add(local)
		mu.Unlock()
	}
	workers = batchWorkers(n, workers)
	if workers == 1 {
		body()
		return errs, total
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	wg.Wait()
	return errs, total
}

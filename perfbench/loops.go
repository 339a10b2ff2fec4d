package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs callers goroutines that each take the next op index
// and run it until d has elapsed. Ops in flight at the deadline finish,
// so the completed ops are exactly the indices [0, done). It returns
// done and the elapsed time, and an error if the n ops ran out before
// the deadline.
func closedLoop(callers, n int, d time.Duration, do func(caller, i int)) (int, time.Duration, error) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A caller that saw the deadline after taking an index still ran
	// it, so every taken index below n completed.
	if done := int(next.Load()); done < n {
		return done, elapsed, nil
	}
	if elapsed < d {
		return n, elapsed, fmt.Errorf("all %d ops ran before the %v deadline; the workload needs more inputs", n, d)
	}
	return n, elapsed, nil
}

// warmups is how many unmeasured ops a workload runs before timing, so
// that client connections are open and first-use costs are paid: without
// them the first half second of a run held up to a quarter of its tail.
const warmups = 16

// warmUp runs ops 0..n-1 from callers goroutines, untimed. It returns
// the first error, since an op that fails while warming up would fail
// the measured ops too.
func warmUp(callers, n int, do func(i int) error) error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += callers {
				errs[c] = do(i)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// openLoop sends n ops at rate per second from senders goroutines:
// sender j owns slots j, j+senders, ... and sends each at its due time,
// or as soon as its previous op returns when that is later. do gets the
// due time, from which the op is timed.
func openLoop(n int, rate float64, senders int, do func(i int, due time.Time)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < n; i += senders {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				do(i, due)
			}
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

// allocMeter measures process-wide heap bytes allocated over a phase.
type allocMeter struct{ before uint64 }

func startAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{before: m.TotalAlloc}
}

func (a allocMeter) bytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - a.before
}

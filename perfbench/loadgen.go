package main

import (
	"sync"
	"time"
)

// openResult is one open-loop request: when it was due, when the
// generator released it, when a connection started sending it and when
// its reply was complete.
type openResult struct {
	Due, Released, Sent, Done time.Time
	Err                       error
}

// Latency is the request's time from when it was due, so a stall also
// shows on every request that queued behind it.
func (r openResult) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Lag is how late the generator released the request.
func (r openResult) Lag() time.Duration { return r.Released.Sub(r.Due) }

// openLoop releases request i at start+offsets[i], whatever the state
// of earlier requests, onto conns sending goroutines (one connection
// each). A request released while every connection is busy waits, and
// that wait counts in its latency. do(conn, i, due) sends request i on
// connection conn. openLoop returns once every request has completed.
func openLoop(start time.Time, offsets []time.Duration, conns int, do func(conn, i int, due time.Time) error) []openResult {
	res := make([]openResult, len(offsets))
	// Sized to the whole schedule so the generator never blocks on a
	// send and its release times measure only its own lateness.
	ready := make(chan int, len(offsets))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range ready {
				res[i].Sent = time.Now()
				res[i].Err = do(conn, i, res[i].Due)
				res[i].Done = time.Now()
			}
		}(c)
	}
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res[i].Due = due
		res[i].Released = time.Now()
		ready <- i
	}
	close(ready)
	wg.Wait()
	return res
}

// evenSchedule spaces n requests 1/rate seconds apart.
func evenSchedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range out {
		out[i] = time.Duration(float64(i) * step)
	}
	return out
}

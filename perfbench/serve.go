package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/probdiag"
	"repro/internal/serve"
)

// serve-loopback: the serving path. serve.New runs in-process behind a
// loopback HTTP listener with four small CUTs, fixed frequencies, double
// faults and Monte-Carlo clouds. The load is an open loop at a fixed
// rate, about a quarter of what the server sustained closed-loop
// with two connections on 2 vCPUs (about 357 req/s for this mix), sent
// over at most two connections; each request is timed from when it was
// due. The only workload where queue wait, coalescing, probabilistic
// scoring and JSON/HTTP cost anything; the engine work per request is
// microseconds.

const (
	// serveRate is the open-loop arrival rate in requests per second: a
	// quarter rather than half of the closed-loop rate, because shared
	// 2-vCPU hosts slow by up to 2× for minutes at a time, and at half
	// the rate the queue then grows without bound and latency measures
	// the host.
	serveRate = 90.0
	// serveConns bounds the client connections.
	serveConns = workers
	// serveSLO is the latency limit of one request, from when it was due.
	serveSLO = 25 * time.Millisecond
	// serveBatchItems is the size of a /v1/diagnose/batch call.
	serveBatchItems = 8
)

var (
	serveCUTs   = []string{"nf-lowpass-7", "mfb-bandpass", "sallen-key-lp", "tow-thomas-lp"}
	serveOmegas = []float64{0.56, 4.55}
	serveMC     = probdiag.Config{Sigma: 0.05, Samples: 50, Seed: 1, Workers: workers}
)

func serveConfig() serve.Config {
	return serve.Config{
		Build: serve.BuildConfig{
			Workers:        workers,
			Freqs:          serveOmegas,
			Seed:           serveMC.Seed,
			DoubleFaults:   true,
			ToleranceSigma: serveMC.Sigma,
			MCSamples:      serveMC.Samples,
		},
		Version: "perfbench",
	}
}

// serveReq is one planned HTTP request and what its reply must say.
type serveReq struct {
	path string
	body []byte
	sets []fault.Set // the injected fault of each (sub-)request
	want []string    // the in-process best candidate key of each
}

type wireFault struct {
	Component string  `json:"component"`
	Deviation float64 `json:"deviation"`
}

type wireReq struct {
	CUT    string      `json:"cut,omitempty"`
	Fault  *wireFault  `json:"fault,omitempty"`
	Faults []wireFault `json:"faults,omitempty"`
	Point  []float64   `json:"point,omitempty"`
}

type wireReply struct {
	Result  *repro.DiagnosisResult `json:"result"`
	Results []wireReply            `json:"results"`
	Error   string                 `json:"error"`
}

// refSession is an in-process session built like the server's entries,
// the reference every reply is checked against.
type refSession struct {
	s  *repro.Session
	dg *repro.Diagnoser
}

func newRefSession(ctx context.Context, name string) (*refSession, error) {
	cut, err := repro.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	s, err := repro.NewSession(cut, repro.WithWorkers(workers), repro.WithDoubleFaults(0))
	if err != nil {
		return nil, err
	}
	dg, err := s.Diagnoser(ctx, serveOmegas)
	if err != nil {
		return nil, err
	}
	return &refSession{s, dg}, nil
}

func toWire(set fault.Set) wireReq {
	parts := set.Parts()
	if len(parts) == 1 {
		return wireReq{Fault: &wireFault{parts[0].Component, parts[0].Deviation}}
	}
	var w wireReq
	for _, p := range parts {
		w.Faults = append(w.Faults, wireFault{p.Component, p.Deviation})
	}
	return w
}

// servePlan draws n requests: per request a CUT, then a single fault
// (45%), a double fault (25%), a measured point (29%) or, rarely (1%), a
// batch call of serveBatchItems faults. Expected answers come from the
// reference sessions.
func servePlan(ctx context.Context, rng *rand.Rand, refs []*refSession, n int) ([]serveReq, error) {
	out := make([]serveReq, n)
	for i := range out {
		ci := rng.Intn(len(refs))
		ref := refs[ci]
		comps := ref.s.CUT().Passives
		name := serveCUTs[ci]
		var err error
		switch x := rng.Float64(); {
		case x < 0.99:
			set, e := randomSet(rng, comps, x >= 0.45 && x < 0.70)
			if e != nil {
				return nil, e
			}
			w := toWire(set)
			w.CUT = name
			req := serveReq{path: "/v1/diagnose", sets: []fault.Set{set}}
			if x >= 0.70 {
				sig, e := ref.s.Dictionary().SignaturesSets(ctx, []fault.Set{set}, serveOmegas)
				if e != nil {
					return nil, e
				}
				w = wireReq{CUT: name, Point: sig[0]}
				res, e := ref.dg.Diagnose(sig[0])
				if e != nil {
					return nil, e
				}
				req.want = []string{res.Best().Key()}
			}
			req.body, err = json.Marshal(w)
			out[i] = req
		default:
			req := serveReq{path: "/v1/diagnose/batch"}
			var sub []wireReq
			for k := 0; k < serveBatchItems; k++ {
				set, e := randomSet(rng, comps, rng.Intn(3) == 0)
				if e != nil {
					return nil, e
				}
				req.sets = append(req.sets, set)
				sub = append(sub, toWire(set))
			}
			req.body, err = json.Marshal(map[string]any{"cut": name, "requests": sub})
			out[i] = req
		}
		if err != nil {
			return nil, err
		}
		if out[i].want == nil {
			res, err := ref.s.DiagnoseFaultSets(ctx, ref.dg, out[i].sets)
			if err != nil {
				return nil, err
			}
			for _, r := range res {
				out[i].want = append(out[i].want, r.Best().Key())
			}
		}
	}
	return out, nil
}

// loopback is a serve.Server behind an HTTP listener on 127.0.0.1.
type loopback struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startLoopback(ctx context.Context) (*loopback, error) {
	srv := serve.New(serveConfig())
	if err := srv.Preload(ctx, serveCUTs); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	lb := &loopback{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.http.Serve(ln) }()
	return lb, nil
}

// stop shuts the listener down, waits for the serving goroutine, then
// drains the server.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.http.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	lb.srv.Close()
	return err
}

// dictionaries returns the dictionaries of the server's resident
// entries.
func (lb *loopback) dictionaries(ctx context.Context) ([]*dictionary.Dictionary, error) {
	var out []*dictionary.Dictionary
	for _, name := range serveCUTs {
		e, err := lb.srv.Registry().Get(ctx, name)
		if err != nil {
			return nil, err
		}
		out = append(out, e.Session.Dictionary())
	}
	return out, nil
}

// client is one connection's HTTP client.
type client struct {
	c  *http.Client
	tr *http.Transport
}

func newClients(n int) []client {
	out := make([]client, n)
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = client{&http.Client{Transport: tr, Timeout: 30 * time.Second}, tr}
	}
	return out
}

// post sends one planned request and decodes the reply. With rec set
// it records the round trip and the decode as spans under parent.
func (c client) post(url string, req *serveReq, rec *recorder, opID, parent int) (*wireReply, error) {
	id := rec.start("http.RoundTrip", opID, parent)
	resp, err := c.c.Post(url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		rec.end(id)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rep wireReply
	id = rec.start("json.Unmarshal", opID, parent)
	err = json.Unmarshal(body, &rep)
	rec.end(id)
	return &rep, err
}

// check compares a reply with the in-process answers and counts the
// sub-results whose best candidate names the injected fault.
func (req *serveReq) check(rep *wireReply) (hits int, err error) {
	results := rep.Results
	if results == nil {
		results = []wireReply{*rep}
	}
	if len(results) != len(req.want) {
		return 0, fmt.Errorf("%d results, want %d", len(results), len(req.want))
	}
	for k, res := range results {
		if res.Error != "" || res.Result == nil || len(res.Result.Candidates) == 0 {
			return 0, fmt.Errorf("result %d: no diagnosis (%s)", k, res.Error)
		}
		best := res.Result.Best()
		if best.Key() != req.want[k] {
			return 0, fmt.Errorf("result %d: best %s, in-process %s", k, best.Key(), req.want[k])
		}
		if namesInjected(best, req.sets[k]) {
			hits++
		}
	}
	return hits, nil
}

// serveOutcome is one open-loop phase.
type serveOutcome struct {
	res  []openResult
	hits []int
	elap time.Duration
}

// drive sends plan[i] at offsets[i] over serveConns connections. With rec
// set, each request records a root span from when it was due to its
// reply, with the wait for a free connection, the HTTP round trip and
// the reply decode as children.
func drive(lb *loopback, plan []serveReq, offsets []time.Duration, rec *recorder, idBase int) serveOutcome {
	clients := newClients(serveConns)
	defer func() {
		for _, c := range clients {
			c.tr.CloseIdleConnections()
		}
	}()
	hits := make([]int, len(plan))
	start := time.Now().Add(5 * time.Millisecond)
	res := openLoop(start, offsets, serveConns, func(conn, i int, due time.Time) error {
		opID := idBase + i + 1
		root := rec.startAt("op", opID, 0, due)
		defer rec.end(root)
		rec.end(rec.startAt("loadgen.wait", opID, root, due))
		rep, err := clients[conn].post(lb.url, &plan[i], rec, opID, root)
		if err != nil {
			return err
		}
		hits[i], err = plan[i].check(rep)
		return err
	})
	return serveOutcome{res: res, hits: hits, elap: time.Since(start)}
}

func runServeLoopback(r *run) error {
	var lbs []*loopback
	defer func() {
		for _, lb := range lbs {
			if err := lb.stop(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: stopping server: %v\n", err)
			}
		}
	}()
	setup, err := r.setupTimes(5, func() error {
		lb, err := startLoopback(r.ctx)
		if err == nil {
			lbs = append(lbs, lb)
		}
		return err
	})
	if err != nil {
		return err
	}
	lb := lbs[len(lbs)-1]

	refs := make([]*refSession, len(serveCUTs))
	for i, name := range serveCUTs {
		if refs[i], err = newRefSession(r.ctx, name); err != nil {
			return err
		}
	}
	phase := r.phase()
	plan, err := servePlan(r.ctx, r.rng, refs, int(serveRate*phase.Seconds()))
	if err != nil {
		return err
	}
	offsets := evenSchedule(len(plan), serveRate)

	m0 := lb.srv.Metrics().Snapshot()
	dicts, err := lb.dictionaries(r.ctx)
	if err != nil {
		return err
	}
	w0 := workOf(dicts...)
	a0 := totalAlloc()
	out := drive(lb, plan, offsets, nil, 0)
	alloc := totalAlloc() - a0
	m1 := lb.srv.Metrics().Snapshot()
	peak := peakRSSMB()
	delta := workOf(dicts...).minus(w0)

	// The tail is p75 of the 1800 requests of a 20 s run. Above it the
	// latency of an open loop on two shared vCPUs is set by host stalls
	// more than by the server: over ten seeds, p90 and p95 (also as the
	// median of 200-request windows) spread by a quarter to a third of
	// their median, p75 by about a tenth. The share of requests over the
	// 25 ms limit (slo_met_frac) still sees the far tail.
	t := &tally{sloLimitMS: ms(serveSLO), tailPct: 75, peakMB: peak}
	var clientMS []float64
	for i, res := range out.res {
		r.attempted++
		if res.Err != nil {
			r.fail("request %d (%s): %v", i, plan[i].path, res.Err)
		}
		t.add(res.Latency(), 0, res.Err == nil)
		clientMS = append(clientMS, ms(res.Done.Sub(res.Sent)))
		if res.Err == nil {
			t.top1Hit += out.hits[i]
			t.top1N += len(plan[i].sets)
		}
	}
	t.timed = out.elap
	t.alloc = alloc
	if !r.traced {
		var fit float64
		for _, ref := range refs {
			f, err := ref.s.Fitness(r.ctx, serveOmegas)
			if err != nil {
				return err
			}
			fit += f
		}
		t.fitness = []float64{fit / float64(len(refs))}
		r.endToEnd(setup, t)
		return nil
	}

	// Server-side layers come from the serving metrics of the untraced
	// phase; client-side spans from a traced replay of the same plan.
	q := func(a, b obs.Snapshot, p float64) float64 { return histDelta(b, a).Quantile(p) * 1000 }
	r.set("serve.queue_wait_ms_p50", q(m0.QueueWaitSeconds, m1.QueueWaitSeconds, 0.5), "ms")
	r.set("serve.batch_flush_ms_p50", q(m0.BatchFlushSeconds, m1.BatchFlushSeconds, 0.5), "ms")
	r.set("serve.engine_solve_ms_p50", q(m0.EngineSolveSeconds, m1.EngineSolveSeconds, 0.5), "ms")
	reqP50 := q(m0.RequestSeconds, m1.RequestSeconds, 0.5)
	r.set("serve.request_ms_p50", reqP50, "ms")
	r.set("serve.http_ms_p50", median(clientMS)-reqP50, "ms")
	batches := m1.Batches - m0.Batches
	r.set("serve.coalesce_factor", float64(m1.BatchedRequests-m0.BatchedRequests)/float64(max(batches, 1)), "ratio")
	r.set("serve.build_ms", m1.BuildSeconds.Sum*1000/float64(max(m1.BuildSeconds.Count, 1)), "ms")
	r.set("serve.queue_rejects", float64(m1.QueueRejects-m0.QueueRejects), "count")
	r.set("serve.errors", float64(m1.Errors-m0.Errors), "count")
	var lag []float64
	for _, res := range out.res {
		lag = append(lag, ms(res.Lag()))
	}
	r.set("loadgen.lag_p99_ms", quantileOf(lag, 0.99), "ms")
	engineCounts(r, delta, len(plan))

	rec := newRecorder()
	traced := drive(lb, plan, offsets, rec, len(plan))
	for i, res := range traced.res {
		r.attempted++
		if res.Err != nil {
			r.fail("traced request %d: %v", i, res.Err)
		}
	}
	spans, err := finish(rec.spans)
	if err != nil {
		return err
	}
	r.spans = spans
	var untraced, tracedMS []float64
	for i := range out.res {
		untraced = append(untraced, ms(out.res[i].Latency()))
		tracedMS = append(tracedMS, ms(traced.res[i].Latency()))
	}
	traceSummary(r, spans, untraced, tracedMS)
	return replayLayers(r, mustCUT(serveCUTs[0]), serveOmegas, layerOpts{probdiag: &serveMC})
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(after, before obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i, b := range after.Buckets {
		d.Buckets = append(d.Buckets, obs.Bucket{LE: b.LE, Count: b.Count - before.Buckets[i].Count})
	}
	return d
}

func mustCUT(name string) repro.CUT {
	c, err := repro.BenchmarkByName(name)
	if err != nil {
		panic(err) // serveCUTs are built-in names
	}
	return c
}

package main

// serve.go is the serve-open workload: sparqld's serving stack driven
// by independent remote aligners, modelled as an open loop. One
// dispatcher walks a seeded Poisson schedule and hands each arrival to
// one of nproc workers, each owning a keep-alive connection. A request
// is timed from when it was due, so a stall also charges the requests
// queued behind it. Arrivals still unsent drainGrace after the window
// closes fail: a backlog that grows shows as failures, while one host
// stall in the last milliseconds of the window does not.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"sofya/internal/endpoint"
)

// serveRate is the fixed open-loop arrival rate. On a two-vCPU host
// under the 10-45% CPU steal it sees, one connection's closed-loop
// capacity is 900-2000 queries/s; at half of it, requests that arrive
// during a stolen slice queue behind it and the steal level, not the
// program, sets the median. At this rate most arrivals find an idle
// worker, while a 15 s window still holds three parts of more than
// 1000 requests each for the p99.
const serveRate = 250.0

// serveStack is sparqld's serving path in-process: Admission over a
// restricted Local behind the HTTP server, and the client the load
// generator sends through.
type serveStack struct {
	engine    *endpoint.Local
	adm       *endpoint.Admission
	client    endpoint.Endpoint
	transport *http.Transport
	srv       *httpServer
}

func (s *serveStack) close() {
	s.transport.CloseIdleConnections()
	s.srv.close()
}

// admissionQueue bounds the callers waiting for an execution slot.
const admissionQueue = 64

func setupServe(in *serveInputs, t *tracer, conns int) (*serveStack, error) {
	dbp, err := loadNT("dbpedia", in.dbpNT)
	if err != nil {
		return nil, err
	}
	st := &serveStack{engine: endpoint.NewLocalRestricted(dbp, seedKP, endpoint.Quota{MaxRows: serveMaxRows})}
	st.adm = endpoint.NewAdmission(t.engine(st.engine), endpoint.Limits{MaxInFlight: runtime.NumCPU(), Queue: admissionQueue})
	if st.srv, err = serveHTTP(t.handle(endpoint.NewServerEndpoint(t.at(st.adm, serverExec)))); err != nil {
		return nil, err
	}
	st.transport = newTransport(conns)
	httpc := &http.Client{Transport: t.transport(st.transport)}
	st.client = t.at(endpoint.NewClient(dbp.Name(), st.srv.url, httpc), clientCalls)
	return st, nil
}

// send issues one recorded query and checks its answer.
func send(ctx context.Context, c endpoint.Endpoint, q *recordedQuery) error {
	if q.Ask {
		ok, err := c.AskCtx(ctx, q.Text)
		if err != nil {
			return err
		}
		if askDigest(ok) != q.Digest {
			return fmt.Errorf("ASK answer differs from the bare engine's for %q", q.Text)
		}
		return nil
	}
	res, err := c.SelectCtx(ctx, q.Text)
	if err != nil {
		return err
	}
	if resultDigest(res) != q.Digest {
		return fmt.Errorf("answer differs from the bare engine's for %q", q.Text)
	}
	return nil
}

// warmupQueries is how many recorded queries the warm-up replays.
const warmupQueries = 2000

// replay sends queries once, closed-loop over conns workers: the
// warm-up, which also checks their answers.
func replay(c endpoint.Endpoint, qs []recordedQuery, conns int) error {
	next := make(chan int)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := send(context.Background(), c, &qs[i]); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openWindow is one measured open-loop stretch.
type openWindow struct {
	done            []completion
	late            []time.Duration // per completed request
	attempted, sent int
	errs            int
	firstE          error
	rows            int // expected rows of the sent SELECTs
	queries         int // engine queries executed
	span            span
}

// schedule draws Poisson arrival offsets at rate per second up to d.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := newRand(seed)
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// completion is one answered request: when it fell due and how long
// after that its answer arrived.
type completion struct {
	due time.Time
	lat time.Duration
}

// serveTail is serve-open's tail quantile.
const serveTail = 0.99

// drainGrace is how long after the window the dispatcher may still send
// arrivals that fell due within it.
const drainGrace = time.Second

type arrival struct {
	q   *recordedQuery
	due time.Time
}

// openLoop dispatches the schedule against c over conns workers.
func openLoop(c endpoint.Endpoint, qs []recordedQuery, order []int, sched []time.Duration, d time.Duration, conns int) *openWindow {
	w := &openWindow{attempted: len(sched)}
	jobs := make(chan arrival)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				began := time.Now()
				err := send(context.Background(), c, a.q)
				done := time.Now()
				mu.Lock()
				w.done = append(w.done, completion{a.due, done.Sub(a.due)})
				w.late = append(w.late, began.Sub(a.due))
				if err != nil {
					w.errs++
					if w.firstE == nil {
						w.firstE = err
					}
				}
				mu.Unlock()
			}
		}()
	}

	runtime.GC() // as runPasses does
	p0 := takeProbe()
	start := p0.at
	end := start.Add(d + drainGrace)
	for i, off := range sched {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if !time.Now().Before(end) {
			break // every worker stayed busy past the drain grace
		}
		q := &qs[order[i%len(order)]]
		jobs <- arrival{q: q, due: due}
		w.sent++
		w.rows += q.Rows
	}
	close(jobs)
	wg.Wait()
	w.span = between(p0, takeProbe())
	return w
}

func runServeOpen(o opts) (*outcome, error) {
	paper, err := genPaper(o.cache, false)
	if err != nil {
		return nil, err
	}
	in, err := genServe(o.cache, paper)
	if err != nil || o.prepare {
		return nil, err
	}
	conns := runtime.NumCPU()
	order := seededOrder(len(in.queries), o.seed)

	if o.trace {
		return serveTraced(o, in, order, conns)
	}
	base := liveHeap()
	setups, st, err := timeSetups(5, func() (*serveStack, error) { return setupServe(in, nil, conns) }, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	w, err := serveWindow(st, in, order, o.window, o.seed, conns, func() {})
	if err != nil {
		return nil, err
	}
	mem := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(st)
	out := serveOutcome(w)
	out.metrics = endToEnd(setups, len(w.done), w.queries, w.attempted, out.failed, w.span, mem)
	out.wall = w.wall()
	return out, nil
}

// serveWindow warms the stack, calls warmed, and measures one open-loop
// window of length d, checking that the engine executed exactly the
// sent queries and rows.
func serveWindow(st *serveStack, in *serveInputs, order []int, d time.Duration, seed int64, conns int, warmed func()) (*openWindow, error) {
	if err := replay(st.client, in.queries[:min(warmupQueries, len(in.queries))], conns); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmed()
	e0 := st.engine.Stats()
	w := openLoop(st.client, in.queries, order, schedule(seed, serveRate, d), d, conns)
	e1 := st.engine.Stats()
	w.queries = e1.Queries - e0.Queries
	if q, r := w.queries, e1.Rows-e0.Rows; w.errs == 0 && (q != w.sent || r != w.rows) {
		w.errs++
		w.firstE = fmt.Errorf("engine executed %d queries/%d rows for %d sent queries expecting %d rows", q, r, w.sent, w.rows)
	}
	logf("open loop: %d due, %d sent, %d failed, wall %.3fs, cpu %.3fs, steal %.3f",
		w.attempted, w.sent, w.errs, w.span.wall.Seconds(), w.span.cpu.Seconds(), w.span.stealShare)
	return w, nil
}

// wall derives the window's wall-clock metrics, its tail taken over
// requests in the order they fell due.
func (w *openWindow) wall() map[string]float64 {
	sort.Slice(w.done, func(i, j int) bool { return w.done[i].due.Before(w.done[j].due) })
	units := make([][]time.Duration, len(w.done))
	for i, d := range w.done {
		units[i] = []time.Duration{d.lat}
	}
	return wallMetrics(splitTail(units, serveTail), len(w.done), w.span, serveTail)
}

func serveOutcome(ws ...*openWindow) *outcome {
	out := &outcome{}
	for _, w := range ws {
		out.attempted += w.attempted
		out.failed += w.errs + w.attempted - w.sent
		out.note(w.firstE)
		out.stealShare = w.span.stealShare
	}
	out.correct = out.failed == 0
	return out
}

// serveTraced measures an untraced and then a traced window of half the
// run length each, on fresh stacks over the same schedule.
func serveTraced(o opts, in *serveInputs, order []int, conns int) (*outcome, error) {
	m := zeroLayerMetrics()
	t0 := time.Now()
	dbp, err := loadNT("dbpedia", in.dbpNT)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	dbp.Freeze()
	m["kb.load_s"] = t1.Sub(t0).Seconds()
	m["kb.freeze_s"] = time.Since(t1).Seconds()

	half := o.window / 2
	plain, err := setupServe(in, nil, conns)
	if err != nil {
		return nil, err
	}
	wu, err := serveWindow(plain, in, order, half, o.seed, conns, func() {})
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	st, err := setupServe(in, tr, conns)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var a0 endpoint.AdmissionStats
	wt, err := serveWindow(st, in, order, half, o.seed, conns, func() {
		tr.reset()
		a0 = st.adm.AdmissionStats()
	})
	if err != nil {
		return nil, err
	}
	a1 := st.adm.AdmissionStats()
	out := serveOutcome(wu, wt)

	ops := float64(len(wt.done))
	tr.endpointMetrics(m, ops)
	m["admission.queued_share"] = ratio(float64(a1.Queued-a0.Queued), float64(a1.Admitted-a0.Admitted))
	m["admission.shed_share"] = ratio(float64(a1.Shed()-a0.Shed()), float64(wt.sent))
	runtimeMetrics(m, wt.span, ops)
	for k, v := range wu.wall() {
		m["wall."+k] = v
	}
	sortDurations(wt.late)
	m["bench.late_ms"] = ms(quantile(wt.late, 0.99))
	m["bench.trace_overhead_share"] = ratio(float64(wt.span.cpu)/ops, float64(wu.span.cpu)/float64(len(wu.done))) - 1
	out.metrics = m
	return out, nil
}

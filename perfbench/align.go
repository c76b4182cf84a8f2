package main

// align.go runs the three closed-loop alignment workloads: one client
// calls core.Aligner.AlignRelation for each head in a seeded order, in
// whole passes, and every output is compared with the reference.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sofya/internal/candidates"
	"sofya/internal/cluster"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/eval"
	"sofya/internal/kb"
)

// alignStack is one set-up of an alignment workload.
type alignStack struct {
	aligner *core.Aligner
	// engines are the innermost endpoints; their statistics count the
	// queries and rows the stack really executed.
	engines []*endpoint.Local
	// decorators and federation, present on align-cluster only.
	cacheKP       *endpoint.Caching
	coalK, coalKP *endpoint.Coalescing
	group         *cluster.Group
	release       func()
}

func (s *alignStack) close() { s.release() }

func (s *alignStack) counts() (queries, rows int) {
	for _, l := range s.engines {
		st := l.Stats()
		queries += st.Queries
		rows += st.Rows
	}
	return queries, rows
}

func setupPaper(in *paperInputs, t *tracer) (*alignStack, error) {
	yago, err := loadNT("yago", in.yagoNT)
	if err != nil {
		return nil, err
	}
	dbp, err := loadNT("dbpedia", in.dbpNT)
	if err != nil {
		return nil, err
	}
	lk, lkp := endpoint.NewLocal(yago, seedK), endpoint.NewLocal(dbp, seedKP)
	k := t.at(t.engine(lk), outerK)
	kp := t.at(t.engine(lkp), outerKP)
	return &alignStack{
		aligner: core.New(k, kp, in.links, alignConfig()),
		engines: []*endpoint.Local{lk, lkp},
		release: func() {},
	}, nil
}

// clusterShards is align-cluster's K' partition: 2 shards × 1 replica.
const clusterShards = 2

func setupCluster(in *paperInputs, t *tracer) (st *alignStack, err error) {
	yago, err := loadNT("yago", in.yagoNT)
	if err != nil {
		return nil, err
	}
	dbp, err := loadNT("dbpedia", in.dbpNT)
	if err != nil {
		return nil, err
	}
	lk := endpoint.NewLocal(yago, seedK)
	st = &alignStack{engines: []*endpoint.Local{lk}}
	var servers []*httpServer
	transport := newTransport(clusterShards)
	st.release = func() {
		if st.group != nil {
			st.group.Close()
		}
		transport.CloseIdleConnections()
		for _, s := range servers {
			s.close()
		}
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	httpc := &http.Client{Transport: t.transport(transport)}
	shards := make([][]endpoint.Endpoint, clusterShards)
	for i, part := range kb.Partition(dbp, clusterShards) {
		l := endpoint.NewLocal(part, seedKP)
		st.engines = append(st.engines, l)
		srv, err := serveHTTP(t.handle(endpoint.NewServerEndpoint(t.at(t.engine(l), serverExec))))
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		shards[i] = []endpoint.Endpoint{t.at(endpoint.NewClient(part.Name(), srv.url, httpc), clientCalls)}
	}
	if st.group, err = cluster.NewGroup(dbp.Name(), seedKP, shards, cluster.Options{}); err != nil {
		return nil, err
	}
	cacheK := endpoint.NewCaching(t.at(t.engine(lk), innerK), 0)
	st.cacheKP = endpoint.NewCaching(t.at(st.group, innerKP), 0)
	st.coalK, st.coalKP = endpoint.NewCoalescing(cacheK), endpoint.NewCoalescing(st.cacheKP)
	st.aligner = core.New(t.at(st.coalK, outerK), t.at(st.coalKP, outerKP), in.links, alignConfig())
	return st, nil
}

func setupScale(in *scaleInputs, t *tracer) (*alignStack, error) {
	yago, dbp, err := openScaleKBs(in)
	if err != nil {
		return nil, err
	}
	lk, lkp := endpoint.NewLocal(yago, seedK), endpoint.NewLocal(dbp, seedKP)
	k := t.at(t.engine(lk), outerK)
	kp := t.at(t.engine(lkp), outerKP)
	cfg := scaleConfig()
	cfg.CandidateIndexPath = in.sidecar
	cfg.CandidateIndexCache = core.NewIndexCache()
	// Resolve the index now, through the cache the aligner will ask, so
	// the first alignment does not pay the restore.
	if _, err := cfg.CandidateIndexCache.Get(context.Background(), kp, in.links, in.sidecar, indexOptions(cfg)); err != nil {
		return nil, err
	}
	if got := cfg.CandidateIndexCache.Stats(); got.Loaded != 1 {
		return nil, fmt.Errorf("candidate index was not restored from %s (%+v)", in.sidecar, got)
	}
	// The mapped KBs stay open for the process: alignment outputs alias
	// their strings.
	return &alignStack{
		aligner: core.New(k, kp, in.links, cfg),
		engines: []*endpoint.Local{lk, lkp},
		release: func() {},
	}, nil
}

// openScaleKBs restores both align-scale KBs and forces the lazy term
// dictionary a snapshot builds on first lookup.
func openScaleKBs(in *scaleInputs) (yago, dbp *kb.KB, err error) {
	if yago, err = kb.OpenSnapshot(in.yagoSnap); err != nil {
		return nil, nil, err
	}
	if dbp, err = kb.OpenSnapshot(in.dbpSnap); err != nil {
		return nil, nil, err
	}
	yago.LookupIRI(in.heads[0])
	dbp.LookupIRI(in.heads[0])
	return yago, dbp, nil
}

// httpServer is an in-process HTTP server on a loopback port.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String() + "/sparql", srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its handlers to return.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// newTransport is an HTTP transport holding at most conns connections
// per host, with endpoint.Client's default timeouts.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxConnsPerHost:       conns,
		MaxIdleConnsPerHost:   conns,
	}
}

// passLog is one whole pass over the heads.
type passLog struct {
	outs          [][]core.Alignment // in pass order
	queries, rows int                // engine counts during the pass
}

// alignWindow is one measured stretch of whole passes.
type alignWindow struct {
	lat    []time.Duration
	passes []passLog
	ops    int
	errs   int
	firstE error
	span   span
}

// runPasses aligns heads in order, in whole passes, until at least
// minPasses passes are done and d has elapsed.
func runPasses(st *alignStack, heads []string, d time.Duration, minPasses int) *alignWindow {
	w := &alignWindow{}
	// Start every window at the same point of the collector's cycle: on
	// a large live heap one collection more or less inside the window
	// would otherwise decide the reading.
	runtime.GC()
	start := takeProbe()
	for len(w.passes) < minPasses || time.Since(start.at) < d {
		q0, r0 := st.counts()
		pl := passLog{outs: make([][]core.Alignment, 0, len(heads))}
		for _, h := range heads {
			t0 := time.Now()
			als, err := st.aligner.AlignRelation(h)
			w.lat = append(w.lat, time.Since(t0))
			w.ops++
			if err != nil {
				w.errs++
				if w.firstE == nil {
					w.firstE = fmt.Errorf("aligning %s: %w", h, err)
				}
			}
			pl.outs = append(pl.outs, als)
		}
		q1, r1 := st.counts()
		pl.queries, pl.rows = q1-q0, r1-r0
		w.passes = append(w.passes, pl)
	}
	w.span = between(start, takeProbe())
	return w
}

// verdict is what checking a window's outputs found.
type verdict struct {
	wrong int   // operations whose output differs from the reference
	err   error // the first difference, for the report
}

func (v *verdict) fail(err error) {
	v.wrong++
	if v.err == nil {
		v.err = err
	}
}

// checkPasses compares every operation's output with the reference and,
// when gold is set, every pass's accepted set's score with refPRF.
func checkPasses(w *alignWindow, heads []string, ref map[string]string, gold *eval.Gold, refPRF eval.PRF) verdict {
	var v verdict
	for p, pass := range w.passes {
		var all []core.Alignment
		for i, als := range pass.outs {
			if got := render(als); got != ref[heads[i]] {
				v.fail(fmt.Errorf("pass %d: output for %s differs from the reference", p, heads[i]))
			}
			all = append(all, als...)
		}
		if gold != nil {
			if got := eval.Score(all, gold); got != refPRF {
				v.fail(fmt.Errorf("pass %d: score %+v, reference run scored %+v", p, got, refPRF))
			}
		}
	}
	return v
}

// checkSameCounts asserts that two windows executed identical engine
// query and row counts pass by pass. Both windows start from a fresh
// stack after the same warm-up, so pass i of each has the same history.
func checkSameCounts(a, b *alignWindow) error {
	n := min(len(a.passes), len(b.passes))
	for i := 0; i < n; i++ {
		pa, pb := a.passes[i], b.passes[i]
		if pa.queries != pb.queries || pa.rows != pb.rows {
			return fmt.Errorf("pass %d: untraced run executed %d queries/%d rows, traced run %d/%d",
				i, pa.queries, pa.rows, pb.queries, pb.rows)
		}
	}
	return nil
}

// alignWorkload describes one closed-loop alignment workload.
type alignWorkload struct {
	heads  []string
	ref    map[string]string
	gold   *eval.Gold // nil: no score check
	refPRF eval.PRF
	setup  func(*tracer) (*alignStack, error)
	setups int     // timed set-ups per run; setup_s is their median
	warmup int     // passes before measuring
	tail   float64 // the wall-clock tail quantile the run length supports
	// layerSetup times the kb and candidates layers' set-up calls for
	// the traced run.
	layerSetup func(m map[string]float64) error
}

func (wl *alignWorkload) run(o opts) (*outcome, error) {
	order := make([]string, len(wl.heads))
	for i, j := range seededOrder(len(wl.heads), o.seed) {
		order[i] = wl.heads[j]
	}
	if o.trace {
		return wl.traced(o, order)
	}

	base := liveHeap()
	setups, st, err := timeSetups(wl.setups, func() (*alignStack, error) { return wl.setup(nil) }, (*alignStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	runPasses(st, order, 0, wl.warmup)
	w := runPasses(st, order, o.window, 1)
	v := checkPasses(w, order, wl.ref, wl.gold, wl.refPRF)
	logWindow("measured", w)
	queries := w.queries()
	w.passes = nil // the outputs are checked; free them before measuring the heap
	mem := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(st)

	out := &outcome{attempted: w.ops, failed: w.errs + v.wrong}
	out.correct = out.failed == 0
	out.note(w.firstE, v.err)
	out.metrics = endToEnd(setups, w.ops, queries, out.attempted, out.failed, w.span, mem)
	out.wall = wl.wall(w)
	out.stealShare = w.span.stealShare
	return out, nil
}

// wall derives a window's wall-clock metrics, its tail taken over whole
// passes.
func (wl *alignWorkload) wall(w *alignWindow) map[string]float64 {
	var passes [][]time.Duration
	for i := 0; i < len(w.lat); i += len(wl.heads) {
		passes = append(passes, w.lat[i:i+len(wl.heads)])
	}
	return wallMetrics(splitTail(passes, wl.tail), w.ops, w.span, wl.tail)
}

// queries is the number of engine queries the window executed.
func (w *alignWindow) queries() int {
	n := 0
	for _, p := range w.passes {
		n += p.queries
	}
	return n
}

// traced runs an untraced and then a traced window of half the run
// length each, on fresh stacks, and derives the per-layer metrics.
func (wl *alignWorkload) traced(o opts, order []string) (*outcome, error) {
	m := zeroLayerMetrics()
	if err := wl.layerSetup(m); err != nil {
		return nil, err
	}
	half := o.window / 2

	plain, err := wl.setup(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runPasses(plain, order, 0, wl.warmup)
	wu := runPasses(plain, order, half, 1)
	plain.close()
	vu := checkPasses(wu, order, wl.ref, wl.gold, wl.refPRF)

	tr := newTracer()
	st, err := wl.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer st.close()
	runPasses(st, order, 0, wl.warmup)
	tr.reset()
	cache0, coal0 := st.decoratorCounts()
	wt := runPasses(st, order, half, 1)
	cache1, coal1 := st.decoratorCounts()
	vt := checkPasses(wt, order, wl.ref, wl.gold, wl.refPRF)
	logWindow("untraced", wu)
	logWindow("traced", wt)

	out := &outcome{attempted: wu.ops + wt.ops, failed: wu.errs + wt.errs + vu.wrong + vt.wrong}
	out.note(wu.firstE, wt.firstE, vu.err, vt.err)
	if err := checkSameCounts(wu, wt); err != nil {
		out.failed++
		out.note(err)
	}
	out.correct = out.failed == 0

	ops := float64(wt.ops)
	var opTime time.Duration
	for _, d := range wt.lat {
		opTime += d
	}
	tr.endpointMetrics(m, ops)
	_, _, outerK := tr.outerK.totals()
	_, _, outerKP := tr.outerKP.totals()
	m["core.self_ms_per_op"] = ratio(ms(opTime-outerK-outerKP), ops)
	if st.group != nil {
		_, _, innerK := tr.innerK.totals()
		_, groupRows, group := tr.innerKP.totals()
		_, shardRows, _ := tr.clientCalls.totals()
		lookups := cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses
		m["endpoint.cache_hit_share"] = ratio(float64(cache1.Hits-cache0.Hits), float64(lookups))
		m["endpoint.coalesced_per_op"] = ratio(float64(coal1-coal0), ops)
		m["endpoint.decorator_self_ms_per_op"] = ratio(ms(outerK-innerK+outerKP-group), ops)
		m["shard.merge_self_ms_per_op"] = ratio(ms(group-tr.clientCalls.covered()), ops)
		m["shard.rows_kept_share"] = ratio(float64(groupRows), float64(shardRows))
		for _, set := range st.group.ReplicaSets() {
			for _, rs := range set.Status() {
				m["cluster.replica_errors"] += float64(rs.Errors)
				if !rs.Healthy {
					m["cluster.unhealthy"]++
				}
			}
		}
	}
	runtimeMetrics(m, wt.span, ops)
	for k, v := range wl.wall(wu) {
		m["wall."+k] = v
	}
	m["bench.trace_overhead_share"] = ratio(float64(wt.span.cpu)/float64(wt.ops), float64(wu.span.cpu)/float64(wu.ops)) - 1
	out.metrics = m
	out.stealShare = wt.span.stealShare
	return out, nil
}

// decoratorCounts reads align-cluster's K' cache and both coalescers.
func (s *alignStack) decoratorCounts() (endpoint.CacheStats, int64) {
	if s.cacheKP == nil {
		return endpoint.CacheStats{}, 0
	}
	return s.cacheKP.CacheStats(), s.coalK.Coalesced() + s.coalKP.Coalesced()
}

func logWindow(name string, w *alignWindow) {
	if len(w.passes) == 0 {
		return
	}
	p := w.passes[0]
	perPass := len(w.lat) / len(w.passes)
	var passTimes []string
	for i := 0; i < len(w.lat); i += perPass {
		var d time.Duration
		for _, l := range w.lat[i : i+perPass] {
			d += l
		}
		passTimes = append(passTimes, fmt.Sprintf("%.2fs", d.Seconds()))
	}
	logf("%s: %d passes (%s), %d ops, wall %.3fs, cpu %.3fs, steal %.3f, first pass %d engine queries / %d rows",
		name, len(w.passes), strings.Join(passTimes, " "), w.ops, w.span.wall.Seconds(), w.span.cpu.Seconds(), w.span.stealShare, p.queries, p.rows)
}

func runAlignPaper(o opts) (*outcome, error) {
	in, err := genPaper(o.cache, true)
	if err != nil {
		return nil, err
	}
	if o.prepare {
		return nil, nil
	}
	wl := &alignWorkload{
		heads: in.heads, ref: in.ref, gold: in.gold, refPRF: in.refPRF,
		setup:  func(t *tracer) (*alignStack, error) { return setupPaper(in, t) },
		setups: 5, warmup: 1, tail: 0.95,
		layerSetup: func(m map[string]float64) error { return timeLoad(in, m) },
	}
	return wl.run(o)
}

func runAlignCluster(o opts) (*outcome, error) {
	in, err := genPaper(o.cache, true)
	if err != nil {
		return nil, err
	}
	if o.prepare {
		return nil, nil
	}
	wl := &alignWorkload{
		heads: in.heads, ref: in.ref,
		setup:  func(t *tracer) (*alignStack, error) { return setupCluster(in, t) },
		setups: 3, warmup: 1, tail: 0.95,
		layerSetup: func(m map[string]float64) error { return timeLoad(in, m) },
	}
	return wl.run(o)
}

func runAlignScale(o opts) (*outcome, error) {
	in, err := loadScale(filepath.Join(o.cache, "scale"))
	if err != nil {
		return nil, err
	}
	if o.prepare {
		return nil, nil
	}
	wl := &alignWorkload{
		heads: in.heads, ref: in.ref,
		setup:  func(t *tracer) (*alignStack, error) { return setupScale(in, t) },
		setups: 3, warmup: 2, tail: 0.99,
		layerSetup: func(m map[string]float64) error { return timeRestore(in, m) },
	}
	return wl.run(o)
}

// timeLoad times the kb layer's share of the paper-world set-up:
// parsing both KBs, then freezing them.
func timeLoad(in *paperInputs, m map[string]float64) error {
	t0 := time.Now()
	yago, err := loadNT("yago", in.yagoNT)
	if err != nil {
		return err
	}
	dbp, err := loadNT("dbpedia", in.dbpNT)
	if err != nil {
		return err
	}
	t1 := time.Now()
	yago.Freeze()
	dbp.Freeze()
	m["kb.load_s"] = t1.Sub(t0).Seconds()
	m["kb.freeze_s"] = time.Since(t1).Seconds()
	return nil
}

// timeRestore times the align-scale restore path layer by layer: the KB
// snapshots, the candidate-index sidecar and its heap, and one
// candidate probe per head.
func timeRestore(in *scaleInputs, m map[string]float64) error {
	t0 := time.Now()
	yago, _, err := openScaleKBs(in)
	if err != nil {
		return err
	}
	m["kb.snapshot_open_s"] = time.Since(t0).Seconds()

	heap0 := liveHeap()
	t1 := time.Now()
	ix, err := candidates.OpenIndex(in.sidecar)
	if err != nil {
		return err
	}
	m["candidates.open_s"] = time.Since(t1).Seconds()
	m["candidates.heap_mb"] = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)

	prober, err := candidates.NewProber(ix, endpoint.NewLocal(yago, seedK))
	if err != nil {
		return err
	}
	k := scaleConfig().CandidateTopK
	var probes []time.Duration
	for _, h := range in.heads {
		t := time.Now()
		if _, err := prober.TopK(h, k); err != nil {
			return fmt.Errorf("candidate probe for %s: %w", h, err)
		}
		probes = append(probes, time.Since(t))
	}
	m["candidates.topk_us"] = us(median(probes))
	return nil
}

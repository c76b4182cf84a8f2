package main

// trace.go holds the traced run's layer-boundary wrappers. They sit
// between the program's own layers (aligner → decorators → federation →
// HTTP client → server → engine) and time every call into the layer
// below, including each Rows.Next and Close, so a layer's busy time is
// the time its caller actually waited on it. Every optional interface
// the program probes for — StatsReporter on endpoints, StreamBorrower
// and KeyedStreamer on prepared queries, KeyedRows on streams — is
// forwarded with the inner value's semantics, so the traced stack
// issues the same queries and rows as the untraced one (the benchmark
// asserts this).

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/sparql"
)

// interval is one call's extent on the wall clock.
type interval struct{ from, to time.Time }

// layer accumulates what one layer boundary saw.
type layer struct {
	keepSpans bool // record the extent of each opening call

	mu    sync.Mutex
	calls int64
	rows  int64
	busy  time.Duration
	spans []interval
}

// opened accounts one opening call (Select, Ask, Stream...) that began
// at start and returned rows rows (0 for streams: their rows are
// counted as pulled).
func (l *layer) opened(start time.Time, rows int) {
	end := time.Now()
	l.mu.Lock()
	l.calls++
	l.rows += int64(rows)
	l.busy += end.Sub(start)
	if l.keepSpans {
		l.spans = append(l.spans, interval{start, end})
	}
	l.mu.Unlock()
}

// pulled accounts one Next or Close on a stream of this layer.
func (l *layer) pulled(start time.Time, row bool) {
	d := time.Since(start)
	l.mu.Lock()
	l.busy += d
	if row {
		l.rows++
	}
	l.mu.Unlock()
}

// totals reads the layer's counters; servers may still be accounting
// their last request when the client has its answer.
func (l *layer) totals() (calls, rows int64, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls, l.rows, l.busy
}

func (l *layer) reset() {
	l.mu.Lock()
	l.calls, l.rows, l.busy, l.spans = 0, 0, 0, nil
	l.mu.Unlock()
}

// covered is the time this layer was busy counted once where its
// opening calls overlapped (shard fan-outs open streams concurrently):
// the union of the opening spans plus the stream pulls, which a merge
// makes one at a time.
func (l *layer) covered() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var opens time.Duration
	for _, s := range l.spans {
		opens += s.to.Sub(s.from)
	}
	return l.busy - opens + unionLength(l.spans)
}

func unionLength(spans []interval) time.Duration {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].from.Before(s[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(s) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// Query shapes: the aligner's probe templates, told apart by their
// projection (each template projects a distinct variable list, and the
// federation's pushdown forms keep it).
const (
	shapeSample = iota
	shapeObjects
	shapeOverlap
	shapePreds
	shapeLiteral
	shapeOther
	numShapes
)

var shapeNames = [numShapes]string{"sample", "objects", "overlap", "preds", "literal", "other"}

// shapeOf classifies a query text or template source.
func shapeOf(text string) int {
	upper := strings.ToUpper(text)
	i := strings.Index(upper, "SELECT")
	j := strings.Index(upper, "WHERE")
	if i < 0 || j < i {
		return shapeOther
	}
	proj := strings.Fields(text[i+len("SELECT") : j])
	if len(proj) > 0 && strings.EqualFold(proj[0], "DISTINCT") {
		proj = proj[1:]
	}
	switch strings.Join(proj, " ") {
	case "?x ?y":
		return shapeSample
	case "?y":
		return shapeObjects
	case "?x ?y1 ?y2":
		return shapeOverlap
	case "?p":
		if strings.Contains(text, "?s ?p ?o") {
			return shapeOther // the relation inventory, not a probe
		}
		return shapePreds
	case "?p ?v":
		return shapeLiteral
	}
	return shapeOther
}

// traced wraps an endpoint so that every call is accounted to the
// layer acct picks for the query text or template.
func traced(inner endpoint.Endpoint, acct func(text string) *layer) endpoint.Endpoint {
	t := &tracedEndpoint{inner: inner, acct: acct}
	if sr, ok := inner.(endpoint.StatsReporter); ok {
		return &tracedStatsEndpoint{tracedEndpoint: t, sr: sr}
	}
	return t
}

type tracedEndpoint struct {
	inner endpoint.Endpoint
	acct  func(text string) *layer
}

func (e *tracedEndpoint) Name() string { return e.inner.Name() }

func (e *tracedEndpoint) Select(q string) (*sparql.Result, error) {
	return e.SelectCtx(context.Background(), q)
}

func (e *tracedEndpoint) Ask(q string) (bool, error) { return e.AskCtx(context.Background(), q) }

func (e *tracedEndpoint) SelectCtx(ctx context.Context, q string) (*sparql.Result, error) {
	start := time.Now()
	res, err := e.inner.SelectCtx(ctx, q)
	e.acct(q).opened(start, resultRows(res))
	return res, err
}

func (e *tracedEndpoint) AskCtx(ctx context.Context, q string) (bool, error) {
	start := time.Now()
	ok, err := e.inner.AskCtx(ctx, q)
	e.acct(q).opened(start, 0)
	return ok, err
}

func (e *tracedEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.inner.Prepare(tmpl, params...)
	if err != nil {
		return nil, err
	}
	return &tracedPrepared{inner: pq, l: e.acct(tmpl)}, nil
}

type tracedStatsEndpoint struct {
	*tracedEndpoint
	sr endpoint.StatsReporter
}

func (e *tracedStatsEndpoint) Stats() endpoint.Stats { return e.sr.Stats() }
func (e *tracedStatsEndpoint) ResetStats()           { e.sr.ResetStats() }

func resultRows(res *sparql.Result) int {
	if res == nil {
		return 0
	}
	return len(res.Rows)
}

// tracedPrepared implements the optional streaming extensions through
// the endpoint package's own helpers, which fall back exactly as they
// would on the inner handle: the wrapper never changes which stream
// the inner query opens.
type tracedPrepared struct {
	inner endpoint.PreparedQuery
	l     *layer
}

func (p *tracedPrepared) Select(args ...sparql.Arg) (*sparql.Result, error) {
	return p.SelectCtx(context.Background(), args...)
}

func (p *tracedPrepared) Ask(args ...sparql.Arg) (bool, error) {
	return p.AskCtx(context.Background(), args...)
}

func (p *tracedPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	start := time.Now()
	res, err := p.inner.SelectCtx(ctx, args...)
	p.l.opened(start, resultRows(res))
	return res, err
}

func (p *tracedPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	start := time.Now()
	ok, err := p.inner.AskCtx(ctx, args...)
	p.l.opened(start, 0)
	return ok, err
}

func (p *tracedPrepared) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.open(func() (endpoint.Rows, error) { return p.inner.Stream(ctx, args...) })
}

func (p *tracedPrepared) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.open(func() (endpoint.Rows, error) { return endpoint.StreamBorrowed(ctx, p.inner, args...) })
}

func (p *tracedPrepared) StreamKeyed(ctx context.Context, orderText string, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.open(func() (endpoint.Rows, error) { return endpoint.StreamKeyed(ctx, p.inner, orderText, args...) })
}

func (p *tracedPrepared) open(fn func() (endpoint.Rows, error)) (endpoint.Rows, error) {
	start := time.Now()
	rows, err := fn()
	p.l.opened(start, 0)
	if err != nil {
		return nil, err
	}
	tr := &tracedRows{Rows: rows, l: p.l}
	if kr, ok := rows.(endpoint.KeyedRows); ok {
		return &tracedKeyedRows{tracedRows: tr, kr: kr}, nil
	}
	return tr, nil
}

type tracedRows struct {
	endpoint.Rows
	l *layer
}

func (r *tracedRows) Next() bool {
	start := time.Now()
	ok := r.Rows.Next()
	r.l.pulled(start, ok)
	return ok
}

func (r *tracedRows) Close() {
	start := time.Now()
	r.Rows.Close()
	r.l.pulled(start, false)
}

type tracedKeyedRows struct {
	*tracedRows
	kr endpoint.KeyedRows
}

func (r *tracedKeyedRows) AttachedKeys() []int     { return r.kr.AttachedKeys() }
func (r *tracedKeyedRows) RowKeys() []sparql.Value { return r.kr.RowKeys() }

var (
	_ endpoint.StatsReporter  = (*tracedStatsEndpoint)(nil)
	_ endpoint.StreamBorrower = (*tracedPrepared)(nil)
	_ endpoint.KeyedStreamer  = (*tracedPrepared)(nil)
	_ endpoint.KeyedRows      = (*tracedKeyedRows)(nil)
)

// wireCounter counts HTTP exchanges and response body bytes below
// endpoint.Client.
type wireCounter struct {
	reqs, respBytes atomic.Int64
}

func (w *wireCounter) reset() {
	w.reqs.Store(0)
	w.respBytes.Store(0)
}

type countingTransport struct {
	inner http.RoundTripper
	w     *wireCounter
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.w.reqs.Add(1)
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, w: t.w}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	w *wireCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.respBytes.Add(int64(n))
	return n, err
}

// tracer holds every layer boundary of a traced stack. Layers a
// workload does not have stay empty and report 0.
type tracer struct {
	outerK, outerKP *layer // the aligner's K and K' endpoints
	innerK, innerKP *layer // below the caching/coalescing decorators
	clientCalls     *layer // endpoint.Client calls
	serverExec      *layer // the endpoint under NewServerEndpoint
	handler         *layer // the HTTP handler
	shapes          [numShapes]*layer
	wire            wireCounter
}

// Layer selectors for tracer.at.
func outerK(t *tracer) *layer      { return t.outerK }
func outerKP(t *tracer) *layer     { return t.outerKP }
func innerK(t *tracer) *layer      { return t.innerK }
func innerKP(t *tracer) *layer     { return t.innerKP }
func clientCalls(t *tracer) *layer { return t.clientCalls }
func serverExec(t *tracer) *layer  { return t.serverExec }

func newTracer() *tracer {
	t := &tracer{
		outerK: &layer{}, outerKP: &layer{}, innerK: &layer{}, innerKP: &layer{},
		clientCalls: &layer{keepSpans: true}, serverExec: &layer{}, handler: &layer{},
	}
	for i := range t.shapes {
		t.shapes[i] = &layer{}
	}
	return t
}

func (t *tracer) reset() {
	for _, l := range append([]*layer{t.outerK, t.outerKP, t.innerK, t.innerKP, t.clientCalls, t.serverExec, t.handler}, t.shapes[:]...) {
		l.reset()
	}
	t.wire.reset()
}

// engine wraps an endpoint.Local so its calls are accounted per query
// shape; a nil tracer leaves it unwrapped.
func (t *tracer) engine(l *endpoint.Local) endpoint.Endpoint {
	if t == nil {
		return l
	}
	return traced(l, func(text string) *layer { return t.shapes[shapeOf(text)] })
}

// at wraps ep at the selected layer; a nil tracer leaves it unwrapped.
func (t *tracer) at(ep endpoint.Endpoint, sel func(*tracer) *layer) endpoint.Endpoint {
	if t == nil {
		return ep
	}
	l := sel(t)
	return traced(ep, func(string) *layer { return l })
}

// transport counts the exchanges of an endpoint.Client's transport;
// a nil tracer leaves it uncounted.
func (t *tracer) transport(rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return &countingTransport{inner: rt, w: &t.wire}
}

// handle times a server's handler; a nil tracer leaves it untimed.
func (t *tracer) handle(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.handler.opened(start, 0)
	})
}

// endpointMetrics derives the per-layer metrics every workload reads
// the same way from the tracer, per operation.
func (t *tracer) endpointMetrics(m map[string]float64, ops float64) {
	perCall := func(l *layer) (usPerCall, rowsPerCall float64) {
		calls, rows, busy := l.totals()
		return ratio(us(busy), float64(calls)), ratio(float64(rows), float64(calls))
	}
	perOp := func(l *layer) (calls, rows, msBusy float64) {
		c, r, b := l.totals()
		return ratio(float64(c), ops), ratio(float64(r), ops), ratio(ms(b), ops)
	}
	for i := 0; i < shapeOther; i++ {
		m["sparql."+shapeNames[i]+"_us"], m["sparql."+shapeNames[i]+"_rows"] = perCall(t.shapes[i])
	}
	m["endpoint.k_calls_per_op"], _, m["endpoint.k_ms_per_op"] = perOp(t.outerK)
	m["endpoint.kp_calls_per_op"], m["endpoint.kp_rows_per_op"], m["endpoint.kp_ms_per_op"] = perOp(t.outerKP)
	m["wire.reqs_per_op"] = ratio(float64(t.wire.reqs.Load()), ops)
	m["wire.resp_kb_per_op"] = ratio(float64(t.wire.respBytes.Load())/1024, ops)
	_, _, m["wire.client_ms_per_op"] = perOp(t.clientCalls)
	m["server.handler_us"], _ = perCall(t.handler)
	m["server.exec_us"], _ = perCall(t.serverExec)
}

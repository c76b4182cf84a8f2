package main

// inputs.go generates every workload's inputs from fixed world specs.
// Nothing here is timed. The worlds themselves are fixed (the paper and
// scale specs carry their own generator seeds); the benchmark seed
// orders the operations and draws the open-loop schedule, so every run
// of a workload times the same population of operations.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"sofya/internal/candidates"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/eval"
	"sofya/internal/experiments"
	"sofya/internal/kb"
	"sofya/internal/sameas"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// Endpoint RAND() seeds: those experiments.Setup gives the d⊂y run, so
// the reference Table 1 scores apply to the benchmark's alignments.
const (
	seedK  = 7
	seedKP = 8
)

// serveMaxRows is sparqld's default row cap.
const serveMaxRows = 10000

// alignConfig is the paper's UBS method with serial endpoint access:
// one closed-loop client and one pipeline worker keep the process at
// or below two busy threads on a two-CPU host.
func alignConfig() core.Config {
	cfg := core.UBSConfig()
	cfg.Parallelism = 1
	return cfg
}

// render is the byte form in which alignment outputs are compared.
func render(als []core.Alignment) string {
	var sb strings.Builder
	for _, al := range als {
		fmt.Fprintf(&sb, "%+v\n", al)
	}
	return sb.String()
}

// paperInputs is the paper-scale world as the alignment workloads see
// it: N-Triples bytes to load, the heads, links, and reference outputs.
type paperInputs struct {
	yagoNT, dbpNT []byte
	heads         []string
	links         sampling.LinkView
	gold          *eval.Gold
	ref           map[string]string // head → rendered reference output
	refPRF        eval.PRF
}

// genPaper generates the paper world. withRef also provides the
// reference alignment (experiments.Setup's d⊂y run) outputs are checked
// against, computed once per program build and kept under cache.
func genPaper(cache string, withRef bool) (*paperInputs, error) {
	w := synth.Generate(synth.DefaultSpec())
	in := &paperInputs{
		heads: w.Report.YagoRelations,
		links: sampling.LinkView{Links: w.Links, KIsA: true},
	}
	var err error
	if in.yagoNT, err = ntBytes(w.Yago); err != nil {
		return nil, err
	}
	if in.dbpNT, err = ntBytes(w.Dbp); err != nil {
		return nil, err
	}
	pairs := make([][2]string, len(w.Truth.DbpToYago))
	for i, p := range w.Truth.DbpToYago {
		pairs[i] = [2]string{p.Body, p.Head}
	}
	in.gold = eval.NewGold(pairs)
	if !withRef {
		return in, nil
	}

	var ref struct {
		Outputs map[string]string
		PRF     eval.PRF
	}
	err = cached(filepath.Join(cache, "paper-ref.json"), &ref, func() error {
		setup := &experiments.Setup{World: w, Seed: seedK, Parallelism: 1}
		run, err := setup.Run(experiments.DbpToYago, alignConfig())
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		byHead := map[string][]core.Alignment{}
		for _, al := range run.All {
			byHead[al.Rule.Head] = append(byHead[al.Rule.Head], al)
		}
		ref.Outputs = make(map[string]string, len(in.heads))
		for _, h := range in.heads {
			ref.Outputs[h] = render(byHead[h])
		}
		ref.PRF = run.PRF
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(ref.Outputs) != len(in.heads) {
		return nil, fmt.Errorf("reference outputs cover %d of %d heads", len(ref.Outputs), len(in.heads))
	}
	in.ref, in.refPRF = ref.Outputs, ref.PRF
	return in, nil
}

// cached fills v from the JSON file at path, or runs compute to fill it
// and then stores it there (atomically, so an interrupted run leaves no
// partial file).
func cached(path string, v any, compute func() error) error {
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, v); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		return nil
	}
	if err := compute(); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func ntBytes(k *kb.KB) ([]byte, error) {
	var buf bytes.Buffer
	if err := k.WriteNT(&buf); err != nil {
		return nil, fmt.Errorf("serializing %s: %w", k.Name(), err)
	}
	return buf.Bytes(), nil
}

func loadNT(name string, nt []byte) (*kb.KB, error) {
	k, err := kb.Load(name, bytes.NewReader(nt))
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", name, err)
	}
	return k, nil
}

// recordedQuery is one K' query of an align-paper pass with the answer
// digest a bare restricted Local gives it.
type recordedQuery struct {
	Text   string
	Ask    bool `json:",omitempty"`
	Digest uint64
	Rows   int
}

// serveInputs is the serve-open traffic: the K' query texts of one
// align-paper pass, in pass order.
type serveInputs struct {
	dbpNT   []byte
	queries []recordedQuery
}

// genServe records the traffic once per program build and keeps it
// under cache.
func genServe(cache string, paper *paperInputs) (*serveInputs, error) {
	in := &serveInputs{dbpNT: paper.dbpNT}
	err := cached(filepath.Join(cache, "serve-queries.json"), &in.queries, func() error {
		yago, err := loadNT("yago", paper.yagoNT)
		if err != nil {
			return err
		}
		dbp, err := loadNT("dbpedia", paper.dbpNT)
		if err != nil {
			return err
		}
		rec := &recorder{inner: endpoint.NewLocal(dbp, seedKP)}
		a := core.New(endpoint.NewLocal(yago, seedK), rec, paper.links, alignConfig())
		for _, h := range paper.heads {
			if _, err := a.AlignRelation(h); err != nil {
				return fmt.Errorf("recording pass: %w", err)
			}
		}
		bare := endpoint.NewLocalRestricted(dbp, seedKP, endpoint.Quota{MaxRows: serveMaxRows})
		for i := range rec.queries {
			q := &rec.queries[i]
			if q.Ask {
				ok, err := bare.Ask(q.Text)
				if err != nil {
					return err
				}
				q.Digest = askDigest(ok)
				continue
			}
			res, err := bare.Select(q.Text)
			if err != nil {
				return err
			}
			q.Digest, q.Rows = resultDigest(res), len(res.Rows)
		}
		in.queries = rec.queries
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(in.queries) == 0 {
		return nil, fmt.Errorf("no serve-open traffic recorded")
	}
	return in, nil
}

func askDigest(ok bool) uint64 {
	if ok {
		return 1
	}
	return 2
}

// resultDigest hashes a SELECT answer's variables and rows, term by term.
func resultDigest(res *sparql.Result) uint64 {
	h := fnv.New64a()
	for _, v := range res.Vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	for _, row := range res.Rows {
		h.Write([]byte{1})
		for _, t := range row {
			h.Write([]byte{byte(t.Kind)})
			for _, s := range []string{t.Value, t.Datatype, t.Lang} {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}

// recorder captures the text of every query an aligner sends to an
// endpoint, rendering prepared executions to the canonical text a
// remote client would send.
type recorder struct {
	inner   endpoint.Endpoint
	queries []recordedQuery
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Select(q string) (*sparql.Result, error) {
	return r.SelectCtx(context.Background(), q)
}

func (r *recorder) Ask(q string) (bool, error) { return r.AskCtx(context.Background(), q) }

func (r *recorder) SelectCtx(ctx context.Context, q string) (*sparql.Result, error) {
	r.queries = append(r.queries, recordedQuery{Text: q})
	return r.inner.SelectCtx(ctx, q)
}

func (r *recorder) AskCtx(ctx context.Context, q string) (bool, error) {
	r.queries = append(r.queries, recordedQuery{Text: q, Ask: true})
	return r.inner.AskCtx(ctx, q)
}

func (r *recorder) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	return endpoint.NewTextPrepared(r, tmpl, params...)
}

// scaleInputs is the align-scale world restored from disk: KB
// snapshots, the candidate-index sidecar, and reference outputs that an
// aligner over a freshly built index produced.
type scaleInputs struct {
	yagoSnap, dbpSnap, sidecar string
	heads                      []string
	links                      sampling.LinkView
	ref                        map[string]string
}

// scaleRelations is the target inventory of the align-scale world.
const scaleRelations = 100000

// scaleConfig is align-scale's aligner configuration: alignConfig with
// top-16 candidate pruning.
func scaleConfig() core.Config {
	cfg := alignConfig()
	cfg.CandidateTopK = 16
	return cfg
}

// indexOptions are the candidate-index options an aligner with cfg
// asks its index cache for.
func indexOptions(cfg core.Config) candidates.Options {
	return candidates.Options{
		SampleSize:  cfg.CandidateSampleSize,
		MaxPostings: cfg.CandidateMaxPostings,
		Parallelism: cfg.Parallelism,
	}
}

const (
	fileYagoSnap = "yago.snap"
	fileDbpSnap  = "dbpedia.snap"
	fileSidecar  = "candidates.idx"
	fileLinks    = "links.tsv"
	fileHeads    = "heads.txt"
	fileRef      = "ref.json"
)

// loadScale returns the align-scale inputs cached under dir, generating
// them first when absent. Generation takes about ten seconds, so the
// inputs are kept; the cache directory must be specific to the program
// build, since snapshots and sidecars are program formats.
func loadScale(dir string) (*scaleInputs, error) {
	if _, err := os.Stat(filepath.Join(dir, fileRef)); err != nil {
		if err := genScale(dir); err != nil {
			return nil, fmt.Errorf("generating align-scale inputs: %w", err)
		}
	}
	in := &scaleInputs{
		yagoSnap: filepath.Join(dir, fileYagoSnap),
		dbpSnap:  filepath.Join(dir, fileDbpSnap),
		sidecar:  filepath.Join(dir, fileSidecar),
	}
	links := sameas.New()
	if err := scanLines(filepath.Join(dir, fileLinks), func(line string) error {
		a, b, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("malformed link line %q", line)
		}
		links.Add(a, b)
		return nil
	}); err != nil {
		return nil, err
	}
	in.links = sampling.LinkView{Links: links, KIsA: true}
	if err := scanLines(filepath.Join(dir, fileHeads), func(line string) error {
		in.heads = append(in.heads, line)
		return nil
	}); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, fileRef))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &in.ref); err != nil {
		return nil, fmt.Errorf("reading reference outputs: %w", err)
	}
	if len(in.ref) != len(in.heads) {
		return nil, fmt.Errorf("reference outputs cover %d of %d heads", len(in.ref), len(in.heads))
	}
	return in, nil
}

// genScale writes the align-scale inputs into dir atomically: into a
// sibling temporary directory renamed into place when complete.
func genScale(dir string) error {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".tmp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	w := synth.Generate(synth.ScaleSpec(scaleRelations))
	links := sampling.LinkView{Links: w.Links, KIsA: true}
	k := endpoint.NewLocal(w.Yago, seedK)
	kp := endpoint.NewLocal(w.Dbp, seedKP)

	// The reference index is built fresh by sampling the target; the
	// measured runs restore it from the sidecar written below.
	cfg := scaleConfig()
	cache := core.NewIndexCache()
	build := indexOptions(cfg)
	build.Parallelism = 2 // a build-shape knob: the index is identical at any setting
	ix, err := cache.Get(context.Background(), kp, links, "", build)
	if err != nil {
		return err
	}
	cfg.CandidateIndexCache = cache
	a := core.New(k, kp, links, cfg)
	ref := make(map[string]string, len(w.Report.YagoRelations))
	for _, h := range w.Report.YagoRelations {
		als, err := a.AlignRelation(h)
		if err != nil {
			return fmt.Errorf("reference alignment of %s: %w", h, err)
		}
		ref[h] = render(als)
	}

	if err := ix.WriteIndexFile(filepath.Join(tmp, fileSidecar)); err != nil {
		return err
	}
	if err := w.Yago.WriteSnapshotFile(filepath.Join(tmp, fileYagoSnap)); err != nil {
		return err
	}
	if err := w.Dbp.WriteSnapshotFile(filepath.Join(tmp, fileDbpSnap)); err != nil {
		return err
	}
	var linkLines []string
	for _, p := range w.Links.Pairs() {
		linkLines = append(linkLines, p.A+"\t"+p.B)
	}
	if err := writeLines(filepath.Join(tmp, fileLinks), linkLines); err != nil {
		return err
	}
	if err := writeLines(filepath.Join(tmp, fileHeads), w.Report.YagoRelations); err != nil {
		return err
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, fileRef), data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return nil
}

func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func scanLines(path string, fn func(string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		if err := fn(sc.Text()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// seededOrder is a seed-determined permutation of 0..n-1.
func seededOrder(n int, seed int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := newRand(seed)
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

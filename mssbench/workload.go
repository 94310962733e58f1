package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	sigsub "repro"
	"repro/internal/service"
	"repro/internal/strgen"
)

// letters maps generated symbols 0..k-1 to the characters mssd receives.
const letters = "abcdefgh"

func render(syms []byte) string {
	b := make([]byte, len(syms))
	for i, s := range syms {
		b[i] = letters[s]
	}
	return string(b)
}

// opType is the class an op's latency is reported under. Percentiles are
// taken per class, never over the whole mix.
type opType int

const (
	opQuery opType = iota
	opBatch
	opAppend
	numOpTypes
)

var opTypeNames = [numOpTypes]string{"query", "batch", "append"}

// op is one scripted request. Scripts reuse ops from a seeded pool, so each
// distinct op's expected answer is computed once at setup.
type op struct {
	typ  opType
	path string
	body []byte
	// req is the request in its batch form (a single query is a batch of
	// one), for the in-process replay; corpus and text describe an append.
	req    service.BatchRequest
	corpus string
	text   string
	// want holds the library's answer per query, computed on the reference
	// scanner ref over the same text and model.
	want []sigsub.QueryResult
	ref  *ref
}

// corpusSpec is one corpus the workload uploads at setup. A live corpus is
// uploaded without its last appendUnit symbols, which setup then appends,
// so it is live (sealed base plus WAL) before the script starts.
type corpusSpec struct {
	name  string
	text  string
	model service.ModelSpec
	live  bool
}

// workload is a fully generated benchmark input: corpora, per-connection
// op scripts and the checks that close the run.
type workload struct {
	conns   int
	corpora []corpusSpec
	scripts [][]*op
	// fullMSS names the live corpus whose length and full-corpus MSS must
	// survive SIGKILL and a restart ("" skips the restart check).
	fullMSS string
	// sizes are the script dimensions, reported with every result.
	sizes map[string]int
}

// appendUnit is the symbols per scripted append.
const appendUnit = 100

// ref is the library's view of a corpus, built exactly as mssd builds an
// uploaded text (sorted-alphabet codec, then the requested model).
type ref struct {
	text string
	sc   *sigsub.Scanner
}

func newRef(text string, spec service.ModelSpec) (*ref, error) {
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		return nil, err
	}
	syms, err := codec.Encode(text)
	if err != nil {
		return nil, err
	}
	var m *sigsub.Model
	if spec.MLE {
		m, err = sigsub.ModelFromSample(syms, codec.K())
	} else {
		m, err = codec.UniformModel()
	}
	if err != nil {
		return nil, err
	}
	sc, err := sigsub.NewScanner(syms, m)
	if err != nil {
		return nil, err
	}
	return &ref{text: text, sc: sc}, nil
}

// answer runs one wire query on the reference scanner, single-worker.
func (r *ref) answer(q service.Query) (sigsub.QueryResult, error) {
	plan, err := q.Plan()
	if err != nil {
		return sigsub.QueryResult{}, err
	}
	return r.sc.RunContext(context.Background(), plan, sigsub.WithWorkers(1))
}

// alphaFor returns an X² cutoff that admits exactly the top `hits`
// substrings of [lo, hi) (fewer on ties): the (hits+1)-th best X².
func (r *ref) alphaFor(lo, hi, hits int) (float64, error) {
	qr, err := r.answer(service.Query{Kind: "topt", T: hits + 1, Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	if len(qr.Results) <= hits {
		return 0, fmt.Errorf("only %d substrings in [%d, %d)", len(qr.Results), lo, hi)
	}
	return qr.Results[hits].X2, nil
}

// builder accumulates a workload's ops and their expected answers.
type builder struct {
	refs map[string]*ref
}

func (b *builder) addCorpus(w *workload, c corpusSpec) (*ref, error) {
	r, err := newRef(c.text, c.model)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: %w", c.name, err)
	}
	w.corpora = append(w.corpora, c)
	b.refs[c.name] = r
	return r, nil
}

// readOp builds a query (one wire query) or batch op against a named
// corpus, or against inline text when corpus is "".
func (b *builder) readOp(typ opType, corpus, inline string, includeText bool, qs ...service.Query) (*op, error) {
	return newReadOp(typ, b.refs[corpus], corpus, inline, includeText, qs...)
}

// newReadOp is readOp with the reference corpus passed in; it touches no
// builder state, so scan corpora build concurrently.
func newReadOp(typ opType, r *ref, corpus, inline string, includeText bool, qs ...service.Query) (*op, error) {
	req := service.BatchRequest{Corpus: corpus, Text: inline, Queries: qs, IncludeText: includeText}
	if inline != "" {
		var err error
		if r, err = newRef(inline, service.ModelSpec{}); err != nil {
			return nil, err
		}
	}
	o := &op{typ: typ, req: req, ref: r}
	var err error
	if typ == opQuery {
		o.path = "/v1/query"
		o.body, err = json.Marshal(service.SingleRequest{Corpus: corpus, Text: inline, Query: qs[0], IncludeText: includeText})
	} else {
		o.path = "/v1/batch"
		o.body, err = json.Marshal(req)
	}
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		a, err := r.answer(q)
		if err != nil {
			return nil, fmt.Errorf("expected answer for %+v: %w", q, err)
		}
		if a.Err != nil {
			return nil, fmt.Errorf("workload query %+v fails in the library: %v", q, a.Err)
		}
		o.want = append(o.want, a)
	}
	return o, nil
}

// retarget returns a copy of a named-corpus read op addressed to another
// corpus holding the same text.
func (o *op) retarget(corpus string) *op {
	c := *o
	c.req.Corpus = corpus
	var err error
	if c.typ == opQuery {
		c.body, err = json.Marshal(service.SingleRequest{Corpus: corpus, Query: c.req.Queries[0], IncludeText: c.req.IncludeText})
	} else {
		c.body, err = json.Marshal(c.req)
	}
	if err != nil {
		panic(err) // the request marshalled once already
	}
	return &c
}

func appendOp(corpus, text string) *op {
	body, _ := json.Marshal(map[string]string{"text": text})
	return &op{typ: opAppend, path: "/v1/corpora/" + corpus + "/append", body: body, corpus: corpus, text: text}
}

// deck deals a pool's ops in seeded shuffled passes, so every op of the
// pool is used equally often (±1 per pass) and a run's mix does not hinge
// on the draw.
type deck struct {
	ops   []*op
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(ops []*op, rng *rand.Rand) *deck { return &deck{ops: ops, rng: rng} }

// index returns the pool index of the next op dealt.
func (d *deck) index() int {
	if d.next == len(d.order) {
		d.order, d.next = d.rng.Perm(len(d.ops)), 0
	}
	d.next++
	return d.order[d.next-1]
}

func (d *deck) deal() *op { return d.ops[d.index()] }

// gen draws n symbols from a seeded generator.
func gen(g strgen.Generator, n int, seed int64) string {
	return render(g.Generate(n, rand.New(rand.NewSource(seed))))
}

// appendPool draws `count` distinct append texts of appendUnit symbols over
// k letters.
func appendPool(corpus string, k, count int, seed int64) []*op {
	ops := make([]*op, count)
	for i := range ops {
		ops[i] = appendOp(corpus, gen(strgen.MustNull(k), appendUnit, seed+int64(i)))
	}
	return ops
}

// size holds the script dimensions derived from --seconds. The rates are
// nominal (a fixed property of the benchmark, not measured per run), so a
// seed and a run length always give the same script.
type size struct {
	cycles int // scan: cycles; request: cycles per connection; ingest: cycles per round per connection
	rounds int // ingest only
}

const (
	scanCyclesPerSec    = 7.0
	requestCyclesPerSec = 90.0
	ingestRoundsPerSec  = 0.65
	ingestCyclesPerRnd  = 150
)

func sizeFor(workload string, seconds float64, smoke bool) size {
	atLeast := func(v float64, min int) int {
		if n := int(v + 0.5); n > min {
			return n
		}
		return min
	}
	switch {
	case smoke && workload == "ingest":
		return size{cycles: 6, rounds: 2}
	case smoke:
		return size{cycles: 8}
	case workload == "scan":
		return size{cycles: atLeast(seconds*scanCyclesPerSec, 1)}
	case workload == "request":
		return size{cycles: atLeast(seconds*requestCyclesPerSec, 1)}
	default:
		return size{cycles: ingestCyclesPerRnd, rounds: atLeast(seconds*ingestRoundsPerSec, 1)}
	}
}

var workloadNames = []string{"scan", "request", "ingest"}

// buildWorkload generates the named workload from the seed.
func buildWorkload(name string, seed int64, sz size) (*workload, error) {
	b := &builder{refs: map[string]*ref{}}
	w := &workload{sizes: map[string]int{}}
	var err error
	switch name {
	case "scan":
		err = b.scan(w, seed, sz)
	case "request":
		err = b.request(w, seed, sz)
	case "ingest":
		err = b.ingest(w, seed, sz)
	default:
		err = fmt.Errorf("unknown workload %q (want scan, request or ingest)", name)
	}
	if err != nil {
		return nil, err
	}
	for c, s := range w.scripts {
		w.sizes[fmt.Sprintf("ops_conn%d", c)] = len(s)
	}
	return w, nil
}

// scanFamily is one corpus family of the scan workload: a text source, the
// model mssd scans it under, and how many seeded instances are uploaded.
type scanFamily struct {
	label     string
	k, n      int
	mle       bool
	instances int
}

// scanFamilies: k4 is the uniform model (the integer fast path), k8 is
// geometric text under its MLE model (the non-uniform kernel path).
//
// instances is the seeded texts per family. One random text's scan cost
// swings by ±15% (k4) to ±20% (k8) with the seed, and a p90 over a few
// texts is the cost of the most expensive one; spreading a run's cycles
// over many texts makes both percentiles quantiles of many draws.
var scanFamilies = []scanFamily{
	{label: "k4", k: 4, n: 5000, instances: 32},
	{label: "k8", k: 8, n: 2000, mle: true, instances: 64},
}

// probeInstances is the corpora per family the traced core probe times.
const probeInstances = 4

// scanKinds are the four queries of a scan cycle, in order.
var scanKinds = []string{"mss", "topt", "threshold", "minlen"}

// scanQueries returns the scan cycle's four queries for one corpus.
func scanQueries(r *ref) ([]service.Query, error) {
	alpha, err := r.alphaFor(0, 0, 30)
	if err != nil {
		return nil, err
	}
	return []service.Query{
		{Kind: "mss"},
		{Kind: "topt", T: 20},
		{Kind: "threshold", Alpha: alpha, Limit: 100},
		{Kind: "mss", MinLength: 500},
	}, nil
}

func scanCorpus(f scanFamily, i int, seed int64) corpusSpec {
	var g strgen.Generator = strgen.MustNull(f.k)
	if f.mle {
		g, _ = strgen.NewGeometric(f.k)
	}
	return corpusSpec{
		name:  fmt.Sprintf("%s-%d", f.label, i),
		text:  gen(g, f.n, seed*1009+int64(f.k*100+i)),
		model: service.ModelSpec{MLE: f.mle},
	}
}

// corpusOps is one scan corpus with its cycle's ops.
type corpusOps struct {
	spec    corpusSpec
	ref     *ref
	singles []*op
	batch   *op
	err     error
}

func (co *corpusOps) build() error {
	var err error
	if co.ref, err = newRef(co.spec.text, co.spec.model); err != nil {
		return fmt.Errorf("corpus %s: %w", co.spec.name, err)
	}
	qs, err := scanQueries(co.ref)
	if err != nil {
		return err
	}
	for _, q := range qs {
		o, err := newReadOp(opQuery, co.ref, co.spec.name, "", false, q)
		if err != nil {
			return err
		}
		co.singles = append(co.singles, o)
	}
	co.batch, err = newReadOp(opBatch, co.ref, co.spec.name, "", false, qs...)
	return err
}

// scan: the engine dominates. One connection; cycles alternate between the
// two families, each taking the next text of its family's seeded
// permutation, and send the four queries as singles on /v1/query, then the
// same four as one /v1/batch (the multi-query shared pass), then three
// durable appends to a small live corpus so the append metrics exist on
// this workload too.
func (b *builder) scan(w *workload, seed int64, sz size) error {
	w.conns = 1
	// Expected answers cost ~50 ms per corpus; two workers halve set-up.
	families := make([][]*corpusOps, len(scanFamilies))
	var all []*corpusOps
	for fi, f := range scanFamilies {
		for i := 0; i < f.instances; i++ {
			co := &corpusOps{spec: scanCorpus(f, i, seed)}
			families[fi] = append(families[fi], co)
			all = append(all, co)
		}
	}
	var wg sync.WaitGroup
	next := make(chan *corpusOps)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for co := range next {
				co.err = co.build()
			}
		}()
	}
	for _, co := range all {
		next <- co
	}
	close(next)
	wg.Wait()
	for _, co := range all {
		if co.err != nil {
			return co.err
		}
		w.corpora = append(w.corpora, co.spec)
		b.refs[co.spec.name] = co.ref
	}
	tick := corpusSpec{name: "tick", text: gen(strgen.MustNull(4), 1000, seed*1009+7), live: true}
	if _, err := b.addCorpus(w, tick); err != nil {
		return err
	}
	appends := appendPool(tick.name, 4, 16, seed*1009+11)
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]int, len(families))
	for fi, f := range families {
		orders[fi] = rng.Perm(len(f))
	}
	var script []*op
	for c := 0; c < sz.cycles; c++ {
		fi, round := c%len(families), c/len(families)
		co := families[fi][orders[fi][round%len(orders[fi])]]
		script = append(script, co.singles...)
		script = append(script, co.batch)
		for a := 0; a < 3; a++ {
			script = append(script, appends[(3*c+a)%len(appends)])
		}
	}
	w.scripts = [][]*op{script}
	w.sizes["cycles"] = sz.cycles
	return nil
}

// request: transport, JSON and service dominate; the engine does little.
// Two connections; each cycle of eight ops carries range-scoped mss and
// topt over 256-symbol windows, a threshold with include_text returning 30
// snippets, a /v1/batch of 8 range-scoped queries, one inline-text query
// of 1k symbols, and, every other cycle, a durable append.
func (b *builder) request(w *workload, seed int64, sz size) error {
	w.conns = 2
	const (
		n      = 20000
		window = 256
	)
	ks := []int{2, 4, 8, 2, 4, 8, 4, 8}
	var names []string
	for i, k := range ks {
		var g strgen.Generator = strgen.MustNull(k)
		if k == 8 {
			g, _ = strgen.NewGeometric(k)
		}
		c := corpusSpec{name: fmt.Sprintf("r%d", i), text: gen(g, n, seed*2003+int64(i)), model: service.ModelSpec{MLE: k == 8}}
		if _, err := b.addCorpus(w, c); err != nil {
			return err
		}
		names = append(names, c.name)
	}
	feed := corpusSpec{name: "feed", text: gen(strgen.MustNull(4), 1000, seed*2003+97), live: true}
	if _, err := b.addCorpus(w, feed); err != nil {
		return err
	}
	// Pool entry i reads corpus i mod 8, so every pool holds the same mix
	// of alphabet sizes whatever the seed; only the offsets are drawn.
	rng := rand.New(rand.NewSource(seed*2003 + 1))
	win := func(i int) (string, int, int) {
		lo := rng.Intn(n - window)
		return names[i%len(names)], lo, lo + window
	}
	pool := func(count int, mk func(i int) (*op, error)) ([]*op, error) {
		ops := make([]*op, count)
		for i := range ops {
			var err error
			if ops[i], err = mk(i); err != nil {
				return nil, err
			}
		}
		return ops, nil
	}
	mssPool, err := pool(64, func(i int) (*op, error) {
		c, lo, hi := win(i)
		return b.readOp(opQuery, c, "", false, service.Query{Kind: "mss", Lo: lo, Hi: hi})
	})
	if err != nil {
		return err
	}
	toptPool, err := pool(64, func(i int) (*op, error) {
		c, lo, hi := win(i)
		return b.readOp(opQuery, c, "", false, service.Query{Kind: "topt", T: 10, Lo: lo, Hi: hi})
	})
	if err != nil {
		return err
	}
	thrPool, err := pool(32, func(i int) (*op, error) {
		c, lo, hi := win(i)
		alpha, err := b.refs[c].alphaFor(lo, hi, 30)
		if err != nil {
			return nil, err
		}
		return b.readOp(opQuery, c, "", true, service.Query{Kind: "threshold", Alpha: alpha, Limit: 100, Lo: lo, Hi: hi})
	})
	if err != nil {
		return err
	}
	batchPool, err := pool(32, func(i int) (*op, error) {
		c := names[i%len(names)]
		qs := make([]service.Query, 8)
		for i := range qs {
			lo := rng.Intn(n - window)
			qs[i] = service.Query{Kind: "mss", Lo: lo, Hi: lo + window}
			if i%2 == 1 {
				qs[i] = service.Query{Kind: "topt", T: 5, Lo: lo, Hi: lo + window}
			}
		}
		return b.readOp(opBatch, c, "", false, qs...)
	})
	if err != nil {
		return err
	}
	inlineSeed := seed*2003 + 500
	inlinePool, err := pool(16, func(int) (*op, error) {
		inlineSeed++
		return b.readOp(opQuery, "", gen(strgen.MustNull(4), 1000, inlineSeed), false, service.Query{Kind: "mss"})
	})
	if err != nil {
		return err
	}
	appends := appendPool(feed.name, 4, 16, seed*2003+700)
	for conn := 0; conn < w.conns; conn++ {
		r := rand.New(rand.NewSource(seed*2003 + 10 + int64(conn)))
		mss, topt, thr := newDeck(mssPool, r), newDeck(toptPool, r), newDeck(thrPool, r)
		batch, inline, app := newDeck(batchPool, r), newDeck(inlinePool, r), newDeck(appends, r)
		var script []*op
		for c := 0; c < sz.cycles; c++ {
			script = append(script, mss.deal(), topt.deal(), thr.deal(), batch.deal(), mss.deal(), topt.deal(), inline.deal())
			if c%2 == 0 {
				script = append(script, app.deal())
			} else {
				script = append(script, mss.deal())
			}
		}
		w.scripts = append(w.scripts, script)
	}
	w.sizes["cycles_per_conn"] = sz.cycles
	return nil
}

// ingest: the write path with reads beside it. Two connections append to
// one durable live corpus per round (seeded with the same 50k k=4
// symbols); each connection repeats 3 appends of 100 symbols, then one read
// over a 2k window of the immutable seed prefix — /v1/query mss on even
// cycles, a /v1/batch of mss and topt on odd ones. Rounds move to a fresh
// corpus so the full-corpus MSS of the restart check stays affordable.
func (b *builder) ingest(w *workload, seed int64, sz size) error {
	w.conns = 2
	const (
		n      = 50000
		window = 2000
	)
	text := gen(strgen.MustNull(4), n, seed*3001)
	seedRef, err := b.addCorpus(w, corpusSpec{name: "in0", text: text, live: true})
	if err != nil {
		return err
	}
	for r := 1; r < sz.rounds; r++ {
		c := corpusSpec{name: fmt.Sprintf("in%d", r), text: text, live: true}
		w.corpora = append(w.corpora, c)
		b.refs[c.name] = seedRef
	}
	// The reads' answers depend only on the seed prefix, so they are
	// computed once on in0 and retargeted to every round's corpus.
	rng := rand.New(rand.NewSource(seed*3001 + 1))
	type read struct{ query, batch []*op }
	reads := make([]read, sz.rounds)
	for i := 0; i < 32; i++ {
		lo := rng.Intn(n - window)
		mss := service.Query{Kind: "mss", Lo: lo, Hi: lo + window}
		topt := service.Query{Kind: "topt", T: 5, Lo: lo, Hi: lo + window}
		q, err := b.readOp(opQuery, "in0", "", false, mss)
		if err != nil {
			return err
		}
		bt, err := b.readOp(opBatch, "in0", "", false, mss, topt)
		if err != nil {
			return err
		}
		for r := range reads {
			name := fmt.Sprintf("in%d", r)
			reads[r].query = append(reads[r].query, q.retarget(name))
			reads[r].batch = append(reads[r].batch, bt.retarget(name))
		}
	}
	texts := appendPool("", 4, 64, seed*3001+100)
	for conn := 0; conn < w.conns; conn++ {
		r := rand.New(rand.NewSource(seed*3001 + 10 + int64(conn)))
		text, queries, batches := newDeck(texts, r), newDeck(reads[0].query, r), newDeck(reads[0].batch, r)
		var script []*op
		for round := 0; round < sz.rounds; round++ {
			name := fmt.Sprintf("in%d", round)
			for c := 0; c < sz.cycles; c++ {
				for a := 0; a < 3; a++ {
					script = append(script, appendOp(name, text.deal().text))
				}
				if c%2 == 0 {
					script = append(script, reads[round].query[queries.index()])
				} else {
					script = append(script, reads[round].batch[batches.index()])
				}
			}
		}
		w.scripts = append(w.scripts, script)
	}
	w.fullMSS = fmt.Sprintf("in%d", sz.rounds-1)
	w.sizes["rounds"] = sz.rounds
	w.sizes["cycles_per_round_per_conn"] = sz.cycles
	return nil
}

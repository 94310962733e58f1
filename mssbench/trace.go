package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	sigsub "repro"
	"repro/internal/service"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the op's root span (-1 for the root itself).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one replay goroutine's spans in memory.
type recorder struct {
	base  time.Time
	idOff int
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// timed runs f inside a span named name under the op's root.
func (r *recorder) timed(name string, opID, parent int, f func()) {
	start := r.now()
	f()
	r.spans = append(r.spans, span{Name: name, Op: opID, ID: r.idOff + len(r.spans), Parent: parent, Start: start, End: r.now()})
}

// openRoot reserves the root span of an op; closeRoot stamps its end.
func (r *recorder) openRoot(name string, opID int) int {
	id := r.idOff + len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: opID, ID: id, Parent: -1, Start: r.now()})
	return id
}

func (r *recorder) closeRoot(id int) { r.spans[id-r.idOff].End = r.now() }

// replay is an in-process executor configured like the daemon: a Store on
// a fresh directory, a group-commit Committer at the daemon's interval, and
// single-worker requests.
type replay struct {
	dir  string
	exec *service.Executor
	// appended counts symbols appended to live corpora, setup included.
	appended int
}

func newReplay(dir string, w *workload) (*replay, error) {
	store, err := service.NewStore(dir)
	if err != nil {
		return nil, err
	}
	rp := &replay{dir: dir, exec: &service.Executor{
		Cache:      service.NewCache(service.DefaultCacheBytes),
		Store:      store,
		Commit:     service.NewCommitter(service.DefaultFsyncInterval),
		MaxQueries: 64,
		MaxWorkers: 16,
		MaxTextLen: 1 << 20,
	}}
	for _, c := range w.corpora {
		text := c.text
		if c.live {
			text = c.text[:len(c.text)-appendUnit]
		}
		if _, _, err := rp.exec.AddCorpus(c.name, text, c.model); err != nil {
			return nil, err
		}
		if c.live {
			if _, err := rp.exec.AppendMode(c.name, c.text[len(c.text)-appendUnit:], service.DurabilityFsync); err != nil {
				return nil, err
			}
			rp.appended += appendUnit
		}
	}
	return rp, nil
}

// appendRequest mirrors mssd's append body.
type appendRequest struct {
	Text       string `json:"text"`
	Durability string `json:"durability,omitempty"`
}

// decodeStrict decodes a body the way mssd's handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// run replays every connection's script concurrently, one goroutine per
// connection, and returns the recorded spans and the wall time.
func (rp *replay) run(w *workload) ([]span, time.Duration, error) {
	base := time.Now()
	recs := make([]*recorder, len(w.scripts))
	errs := make([]error, len(w.scripts))
	appended := make([]int, len(w.scripts))
	var wg sync.WaitGroup
	for c := range w.scripts {
		recs[c] = &recorder{base: base, idOff: c << 32}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem, err := memCorpus()
			if err != nil {
				errs[c] = err
				return
			}
			for i, o := range w.scripts[c] {
				if err := rp.op(recs[c], c<<32|i, o, mem); err != nil {
					errs[c] = err
					return
				}
				if o.typ == opAppend {
					appended[c] += appendUnit
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(base)
	var spans []span
	for c, r := range recs {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		rp.appended += appended[c]
		spans = append(spans, r.spans...)
	}
	return spans, wall, nil
}

// memCorpus is a memory-only appendable k=4 corpus: the in-memory apply
// an append costs without its WAL write and covering fsync.
func memCorpus() (*sigsub.Corpus, error) {
	m, err := sigsub.UniformModel(4)
	if err != nil {
		return nil, err
	}
	return sigsub.NewCorpus(m)
}

// op replays one scripted op through the layers mssd calls, with a span
// around each call, then checks the answer outside the spans.
func (rp *replay) op(rec *recorder, opID int, o *op, mem *sigsub.Corpus) error {
	ctx := context.Background()
	root := rec.openRoot("op."+opTypeNames[o.typ], opID)
	defer rec.closeRoot(root)
	var buf bytes.Buffer
	if o.typ == opAppend {
		var req appendRequest
		var err error
		rec.timed("mssd.decode", opID, root, func() { err = decodeStrict(o.body, &req) })
		if err != nil {
			return err
		}
		var info service.Info
		rec.timed("service.append", opID, root, func() {
			info, err = rp.exec.AppendMode(o.corpus, req.Text, service.DurabilityFsync)
		})
		if err != nil {
			return fmt.Errorf("append to %s: %w", o.corpus, err)
		}
		rec.timed("mssd.encode", opID, root, func() { err = json.NewEncoder(&buf).Encode(map[string]any{"corpus": info}) })
		if err != nil {
			return err
		}
		// The daemon freezes the corpus to answer every append; the freeze
		// and the in-memory apply are timed on their own.
		lc := rp.exec.Live(o.corpus)
		rec.timed("service.freeze", opID, root, func() { lc.Freeze() })
		syms := []byte(o.text)
		for i := range syms {
			syms[i] -= 'a'
		}
		rec.timed("counts.apply", opID, root, func() { err = mem.Append(syms) })
		return err
	}

	var req service.BatchRequest
	var err error
	rec.timed("mssd.decode", opID, root, func() {
		if o.typ == opQuery {
			var single service.SingleRequest
			err = decodeStrict(o.body, &single)
			req = single.Batch()
		} else {
			err = decodeStrict(o.body, &req)
		}
	})
	if err != nil {
		return err
	}
	lc := rp.exec.Live(req.Corpus)
	if lc != nil {
		rec.timed("service.freeze", opID, root, func() { lc.Freeze() })
	}
	var resp service.BatchResponse
	rec.timed("service.execute", opID, root, func() { resp, err = rp.exec.ExecuteContext(ctx, req) })
	if err != nil {
		return fmt.Errorf("execute %s: %w", o.body, err)
	}
	rec.timed("mssd.encode", opID, root, func() {
		if o.typ == opQuery {
			err = json.NewEncoder(&buf).Encode(map[string]any{"corpus": resp.Corpus, "result": resp.Results[0]})
		} else {
			err = json.NewEncoder(&buf).Encode(resp)
		}
	})
	if err != nil {
		return err
	}

	// The engine's share: the same lowered plans on the same scanner,
	// through the route the executor takes.
	var sc *sigsub.Scanner
	switch {
	case req.Text != "":
		var c *service.Corpus
		rec.timed("service.build", opID, root, func() { c, err = service.BuildCorpus("", req.Text, req.Model) })
		if err != nil {
			return err
		}
		sc = c.Scanner
	case lc != nil:
		sc = lc.Freeze().Scanner
	default:
		c, ok := rp.exec.Cache.Get(req.Corpus)
		if !ok {
			return fmt.Errorf("corpus %s not cached", req.Corpus)
		}
		sc = c.Scanner
	}
	plans := make([]sigsub.Query, len(req.Queries))
	for i, q := range req.Queries {
		if plans[i], err = q.Plan(); err != nil {
			return err
		}
	}
	rec.timed("core.run_batch", opID, root, func() {
		_, err = sc.RunBatchContext(ctx, plans, sigsub.WithWorkers(1), sigsub.WithWarmStart(false))
	})
	if err != nil {
		return err
	}
	for i, r := range resp.Results {
		if err := compare(o, i, r); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// spanIndex groups span durations (ms) by name and root op class.
type spanIndex struct {
	byName map[string][]float64
	// byOp maps op id to its spans' durations by name.
	byOp map[int]map[string]float64
	// opClass maps op id to its root span name.
	opClass map[int]string
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]float64{}, byOp: map[int]map[string]float64{}, opClass: map[int]string{}}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		if s.Parent < 0 {
			ix.opClass[s.Op] = s.Name
			continue
		}
		if ix.byOp[s.Op] == nil {
			ix.byOp[s.Op] = map[string]float64{}
		}
		ix.byOp[s.Op][s.Name] = d
	}
	for op, names := range ix.byOp {
		class := strings.TrimPrefix(ix.opClass[op], "op.")
		for name, d := range names {
			ix.byName[name] = append(ix.byName[name], d)
			ix.byName[name+"@"+class] = append(ix.byName[name+"@"+class], d)
		}
	}
	return ix
}

// reads returns a span's durations over query and batch ops.
func (ix spanIndex) reads(name string) []float64 {
	return append(append([]float64(nil), ix.byName[name+"@query"]...), ix.byName[name+"@batch"]...)
}

// traced runs the in-process replay with spans on, the engine and storage
// probes, and derives the per-layer metrics.
func traced(cfg config, w *workload, ph phase, runDir string, logw io.Writer) (map[string]metric, error) {
	m := map[string]metric{}

	rp, err := newReplay(filepath.Join(runDir, "replay"), w)
	if err != nil {
		return nil, err
	}
	spans, wall, err := rp.run(w)
	if err != nil {
		return nil, err
	}
	commit := rp.exec.Commit.Stats()
	if err := rp.exec.Close(); err != nil {
		return nil, err
	}
	ops := sumLen(w.scripts)
	m["trace.overhead_ms_per_op"] = metric{spanCostNs() * float64(len(spans)) / float64(ops) / 1e6, "ms"}
	if err := writeSpans(cfg, spans); err != nil {
		return nil, err
	}

	ix := indexSpans(spans)
	m["mssd.decode_ms"] = metric{median(ix.reads("mssd.decode")), "ms"}
	m["mssd.encode_ms"] = metric{median(ix.reads("mssd.encode")), "ms"}
	inProcess := map[opType]float64{
		opQuery:  median(ix.byName["service.execute@query"]),
		opBatch:  median(ix.byName["service.execute@batch"]),
		opAppend: median(ix.byName["service.append@append"]),
	}
	for typ, v := range inProcess {
		m["mssd.overhead_ms."+opTypeNames[typ]] = metric{percentile(latencies(ph, typ), 0.5) - v, "ms"}
	}
	var readBytes, reads float64
	for _, s := range ph.samples {
		if s.typ != opAppend {
			readBytes += float64(s.bytes)
			reads++
		}
	}
	m["mssd.resp_bytes_per_op"] = metric{readBytes / reads, "B"}

	m["service.execute_ms"] = metric{median(ix.reads("service.execute")), "ms"}
	var self []float64
	for _, names := range ix.byOp {
		if ex, ok := names["service.execute"]; ok {
			self = append(self, ex-names["core.run_batch"])
		}
	}
	m["service.self_ms"] = metric{median(self), "ms"}
	if xs := ix.byName["service.build"]; len(xs) > 0 {
		m["service.build_ms"] = metric{median(xs), "ms"}
	}
	appendMs := median(ix.byName["service.append"])
	m["service.append_ms"] = metric{appendMs, "ms"}
	m["service.commit_wait_ms"] = metric{appendMs - median(ix.byName["counts.apply"]), "ms"}
	m["service.freeze_ms"] = metric{median(ix.byName["service.freeze"]), "ms"}
	m["service.appends_per_fsync"] = metric{commit.AppendsPerFsync, "ratio"}
	m["service.fsyncs"] = metric{float64(commit.Fsyncs), "count"}
	m["service.max_ticket_wait_ms"] = metric{float64(commit.MaxTicketWait) / 1e6, "ms"}
	m["counts.append_ns_per_sym"] = metric{median(ix.byName["counts.apply"]) * 1e6 / appendUnit, "ns/sym"}

	var indexBytes, syms float64
	for _, c := range w.corpora {
		if c.live {
			continue
		}
		if cached, ok := rp.exec.Cache.Get(c.name); ok {
			indexBytes += float64(cached.Scanner.IndexBytes())
			syms += float64(cached.Scanner.Len())
		}
	}
	if syms == 0 {
		// Every corpus of the workload is live: measure the seed text's index.
		c, err := service.BuildCorpus("probe", w.corpora[0].text, w.corpora[0].model)
		if err != nil {
			return nil, err
		}
		indexBytes, syms = float64(c.Scanner.IndexBytes()), float64(c.Scanner.Len())
	}
	m["counts.index_bytes_per_sym"] = metric{indexBytes / syms, "B/sym"}

	if err := storageProbe(m, w, rp, filepath.Join(runDir, "probe")); err != nil {
		return nil, err
	}
	reps := 3
	if cfg.smoke {
		reps = 1
	}
	if err := coreProbe(m, cfg.seed, reps); err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "mssbench: traced replay %d ops, %d spans, %.0f ms\n", ops, len(spans), ms(wall))
	return m, nil
}

// spanCostNs is what recording one span adds to the call it wraps: an
// empty call timed through the recorder minus the same call made
// directly, per span; the median of 5 rounds. Two whole replays, one with
// spans and one without, differ by host drift far more than by this cost.
func spanCostNs() float64 {
	const n = 20000
	perCall := func(call func(i int)) float64 {
		t0 := time.Now()
		for i := range n {
			call(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	empty := func() {}
	var rounds []float64
	for range 5 {
		rec := &recorder{base: time.Now()}
		on := perCall(func(i int) { rec.timed("probe", i, -1, empty) })
		off := perCall(func(int) { empty() })
		rounds = append(rounds, on-off)
	}
	return median(rounds)
}

// writeSpans writes the spans, one JSON object a line, when the run ends.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storageProbe times the snapshot layer: Store.Save and Store.Load (mmap)
// of every corpus text, Store.OpenLive (WAL replay) of every live corpus
// the replay appended to, and the WAL bytes per appended symbol.
func storageProbe(m map[string]metric, w *workload, rp *replay, dir string) error {
	store, err := service.NewStore(dir)
	if err != nil {
		return err
	}
	var build, save, load []float64
	seen := map[string]bool{}
	for _, c := range w.corpora {
		if seen[c.text] {
			continue
		}
		seen[c.text] = true
		t0 := time.Now()
		corpus, err := service.BuildCorpus(c.name, c.text, c.model)
		if err != nil {
			return err
		}
		build = append(build, ms(time.Since(t0)))
		t0 = time.Now()
		if err := store.Save(corpus); err != nil {
			return err
		}
		save = append(save, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := store.Load(c.name); err != nil {
			return err
		}
		load = append(load, ms(time.Since(t0)))
	}
	if _, ok := m["service.build_ms"]; !ok {
		// No inline ops in this workload: BuildCorpus is timed on the
		// uploaded texts instead.
		m["service.build_ms"] = metric{median(build), "ms"}
	}
	m["snapshot.save_ms"] = metric{median(save), "ms"}
	m["snapshot.load_ms"] = metric{median(load), "ms"}

	replayStore, err := service.NewStore(rp.dir)
	if err != nil {
		return err
	}
	var open []float64
	for _, c := range w.corpora {
		if !c.live {
			continue
		}
		t0 := time.Now()
		lc, err := replayStore.OpenLive(c.name)
		if err != nil {
			return err
		}
		open = append(open, ms(time.Since(t0)))
		if err := lc.Close(); err != nil {
			return err
		}
	}
	m["snapshot.wal_replay_ms"] = metric{median(open), "ms"}
	var walBytes int64
	err = filepath.WalkDir(rp.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			walBytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["snapshot.wal_bytes_per_sym"] = metric{float64(walBytes) / float64(rp.appended), "B/sym"}
	return nil
}

// coreProbe times the engine on the scan workload's corpora (generated from
// the same seed on every workload): each kind alone through RunContext and
// as a batch of one (the daemon's route), the four as one shared pass, the
// index build, and the exact work counters.
func coreProbe(m map[string]metric, seed int64, reps int) error {
	ctx := context.Background()
	for _, f := range scanFamilies {
		type inst struct {
			syms  []byte
			model *sigsub.Model
			sc    *sigsub.Scanner
			plans []sigsub.Query
		}
		insts := make([]inst, min(probeInstances, f.instances))
		for i := range insts {
			c := scanCorpus(f, i, seed)
			r, err := newRef(c.text, c.model)
			if err != nil {
				return err
			}
			qs, err := scanQueries(r)
			if err != nil {
				return err
			}
			in := inst{syms: r.sc.Symbols(), sc: r.sc}
			if f.mle {
				in.model, err = sigsub.ModelFromSample(in.syms, f.k)
			} else {
				in.model, err = sigsub.UniformModel(f.k)
			}
			if err != nil {
				return err
			}
			for _, q := range qs {
				p, err := q.Plan()
				if err != nil {
					return err
				}
				in.plans = append(in.plans, p)
			}
			insts[i] = in
		}
		nk := len(scanKinds)
		run := make([][]float64, nk)
		batch1 := make([][]float64, nk)
		var shared, build []float64
		evaluated := make([]int64, nk)
		skipped := make([]int64, nk)
		for rep := 0; rep < reps; rep++ {
			runSum := make([]time.Duration, nk)
			b1Sum := make([]time.Duration, nk)
			var sharedSum, buildSum time.Duration
			for _, in := range insts {
				t0 := time.Now()
				if _, err := sigsub.NewScanner(in.syms, in.model); err != nil {
					return err
				}
				buildSum += time.Since(t0)
				for k, p := range in.plans {
					t0 := time.Now()
					if _, err := in.sc.RunContext(ctx, p, sigsub.WithWorkers(1)); err != nil {
						return err
					}
					runSum[k] += time.Since(t0)
					t0 = time.Now()
					res, err := in.sc.RunBatchContext(ctx, []sigsub.Query{p}, sigsub.WithWorkers(1))
					if err != nil {
						return err
					}
					b1Sum[k] += time.Since(t0)
					if rep == 0 {
						evaluated[k] += res[0].Stats.Evaluated
						skipped[k] += res[0].Stats.Skipped
					}
				}
				t0 = time.Now()
				if _, err := in.sc.RunBatchContext(ctx, in.plans, sigsub.WithWorkers(1)); err != nil {
					return err
				}
				sharedSum += time.Since(t0)
			}
			per := float64(len(insts))
			for k := range scanKinds {
				run[k] = append(run[k], ms(runSum[k])/per)
				batch1[k] = append(batch1[k], ms(b1Sum[k])/per)
			}
			shared = append(shared, ms(sharedSum)/per)
			build = append(build, ms(buildSum)/per)
		}
		var singles, evalTotal float64
		for k, kind := range scanKinds {
			suffix := kind + "." + f.label
			r, b1 := median(run[k]), median(batch1[k])
			m["core.run_ms."+suffix] = metric{r, "ms"}
			m["core.run_batch1_ms."+suffix] = metric{b1, "ms"}
			m["core.batch_of_one_ratio."+suffix] = metric{b1 / r, "ratio"}
			m["core.evaluated."+suffix] = metric{float64(evaluated[k]), "count"}
			m["core.skip_frac."+suffix] = metric{float64(skipped[k]) / float64(evaluated[k]+skipped[k]), "frac"}
			singles += b1
			evalTotal += float64(evaluated[k])
		}
		sh := median(shared)
		m["core.shared_pass_ms."+f.label] = metric{sh, "ms"}
		m["core.shared_pass_ratio."+f.label] = metric{sh / singles, "ratio"}
		m["core.ns_per_evaluated."+f.label] = metric{singles * float64(len(insts)) * 1e6 / evalTotal, "ns"}
		m["counts.build_ms."+f.label] = metric{median(build), "ms"}
	}
	return nil
}

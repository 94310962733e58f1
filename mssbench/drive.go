package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	sigsub "repro"
	"repro/internal/service"
)

// sample is one completed op as the client saw it.
type sample struct {
	typ   opType
	lat   time.Duration
	ok    bool
	bytes int
}

// phase is the outcome of driving every connection's script once.
type phase struct {
	samples []sample
	wall    time.Duration
	// acked counts acknowledged appended symbols per corpus.
	acked map[string]int
	// firstErr is the first failed or mismatched op, for the report.
	firstErr error
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// drive replays the scripts closed-loop, one goroutine per connection: each
// op is sent only after the previous one on its connection was answered.
// Latency runs from send until the body is fully read. The bodies are kept
// and checked after the last op, so the client spends no CPU decoding while
// mssd is measured. Ops not sent by deadline are dropped, which fails the
// run (a guard against a pathologically slow build).
func drive(client *http.Client, base string, scripts [][]*op, deadline time.Time) phase {
	type answer struct {
		o      *op
		status int
		body   []byte
		err    error
	}
	answers := make([][]answer, len(scripts))
	lats := make([][]sample, len(scripts))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range scripts {
		script := scripts[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			as := make([]answer, 0, len(script))
			ls := make([]sample, 0, len(script))
			var buf bytes.Buffer
			for _, o := range script {
				if time.Now().After(deadline) {
					break
				}
				buf.Reset()
				t0 := time.Now()
				status, err := post(client, base+o.path, o.body, &buf)
				lat := time.Since(t0)
				as = append(as, answer{o: o, status: status, body: bytes.Clone(buf.Bytes()), err: err})
				ls = append(ls, sample{typ: o.typ, lat: lat, bytes: buf.Len()})
			}
			answers[c], lats[c] = as, ls
		}()
	}
	wg.Wait()
	out := phase{acked: map[string]int{}, wall: time.Since(start)}
	for c := range answers {
		for i, a := range answers[c] {
			err := a.err
			if err == nil && a.status != http.StatusOK {
				err = fmt.Errorf("%s: status %d: %s", a.o.path, a.status, bytes.TrimSpace(a.body))
			}
			if err == nil {
				err = check(a.o, a.body)
			}
			if err == nil && a.o.typ == opAppend {
				out.acked[a.o.corpus] += appendUnit
			}
			if err != nil && out.firstErr == nil {
				out.firstErr = err
			}
			s := lats[c][i]
			s.ok = err == nil
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// add appends a later phase of the same run.
func (p *phase) add(q phase) {
	p.samples = append(p.samples, q.samples...)
	p.wall += q.wall
	for name, n := range q.acked {
		p.acked[name] += n
	}
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func post(client *http.Client, url string, body []byte, into *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = into.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// check decodes a response and compares it with the op's expected answer.
func check(o *op, body []byte) error {
	switch o.typ {
	case opAppend:
		var out struct {
			Corpus service.Info `json:"corpus"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if out.Corpus.Name != o.corpus || !out.Corpus.Live {
			return fmt.Errorf("append to %s answered for %+v", o.corpus, out.Corpus)
		}
		return nil
	case opQuery:
		var out struct {
			Result service.QueryResult `json:"result"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		return compare(o, 0, out.Result)
	default:
		var out service.BatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if len(out.Results) != len(o.want) {
			return fmt.Errorf("batch answered %d slots, want %d", len(out.Results), len(o.want))
		}
		for i, r := range out.Results {
			if err := compare(o, i, r); err != nil {
				return err
			}
		}
		return nil
	}
}

// compare checks one query's answer against the library: start, end and
// X² bit-identical (threshold results as a set ordered by position); for
// top-t the X² multiset; with include_text, every snippet.
func compare(o *op, i int, got service.QueryResult) error {
	q, want := o.req.Queries[i], o.want[i]
	if got.Error != "" {
		return fmt.Errorf("query %+v failed: %s", q, got.Error)
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("query %+v: %d results, want %d", q, len(got.Results), len(want.Results))
	}
	g := append([]service.Result(nil), got.Results...)
	wnt := append([]sigsub.Result(nil), want.Results...)
	switch q.Kind {
	case "topt":
		gx, wx := make([]float64, len(g)), make([]float64, len(wnt))
		for j := range g {
			gx[j], wx[j] = g[j].X2, wnt[j].X2
		}
		sort.Float64s(gx)
		sort.Float64s(wx)
		for j := range gx {
			if math.Float64bits(gx[j]) != math.Float64bits(wx[j]) {
				return fmt.Errorf("query %+v: X² multiset differs at %d: %v vs %v", q, j, gx[j], wx[j])
			}
		}
		return nil
	case "threshold":
		sort.Slice(g, func(a, b int) bool { return g[a].Start < g[b].Start || g[a].Start == g[b].Start && g[a].End < g[b].End })
		sort.Slice(wnt, func(a, b int) bool {
			return wnt[a].Start < wnt[b].Start || wnt[a].Start == wnt[b].Start && wnt[a].End < wnt[b].End
		})
	}
	for j := range g {
		if g[j].Start != wnt[j].Start || g[j].End != wnt[j].End || math.Float64bits(g[j].X2) != math.Float64bits(wnt[j].X2) {
			return fmt.Errorf("query %+v: result %d is [%d,%d) X²=%v, want [%d,%d) X²=%v",
				q, j, g[j].Start, g[j].End, g[j].X2, wnt[j].Start, wnt[j].End, wnt[j].X2)
		}
		if o.req.IncludeText {
			end := min(wnt[j].End, wnt[j].Start+200)
			if g[j].Text != o.ref.text[wnt[j].Start:end] {
				return fmt.Errorf("query %+v: snippet of [%d,%d) differs", q, wnt[j].Start, wnt[j].End)
			}
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iam/internal/atomicfile"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/serve"
)

// span is one timed interval of the traced run. Times are nanoseconds since
// the run's origin. Spans of one request share req; parent is the id of the
// span that caused this one, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Reqs lists the requests a model batch answered, resolved after the run.
	Reqs []int `json:"reqs,omitempty"`

	qs    []*query.Query // model batches: the batch, for replays
	seeds []int64        // model batches: the content seeds it ran with
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records s and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Start: t.ns(time.Now()), End: -1, Parent: parent, Req: req})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark records a finished span.
func (t *tracer) mark(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Req: req})
}

// named returns a copy of the spans called name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) setReqs(id int, reqs []int) {
	t.mu.Lock()
	t.spans[id].Reqs = reqs
	t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedModel is the model tier of the traced server. It mirrors the
// serving layer's own content-seeded tier (QuerySeed, then
// EstimateBatchSeeded) and records every model batch as a span, so model
// batches become visible from outside the server.
type tracedModel struct {
	m  model
	tr *tracer
}

func (a *tracedModel) Name() string { return a.m.Name() }

func (a *tracedModel) Estimate(q *query.Query) (float64, error) {
	res, err := a.EstimateBatch([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

func (a *tracedModel) EstimateBatch(qs []*query.Query) ([]float64, error) {
	seeds := make([]int64, len(qs))
	for i, q := range qs {
		seeds[i] = a.m.QuerySeed(q)
	}
	start := time.Now()
	res, err := a.m.EstimateBatchSeeded(qs, seeds)
	end := time.Now()
	a.tr.add(span{
		Name: "model.batch", Start: a.tr.ns(start), End: a.tr.ns(end), Parent: -1, Req: -1,
		qs: append([]*query.Query(nil), qs...), seeds: seeds,
	})
	return res, err
}

// tracedServer stands a server on the traced model tier with the same
// cascade the serving layer builds itself: step fusion on, then the
// sampling and histogram tiers (see pool.computeRefs) behind the model.
func tracedServer(e *env, tr *tracer, fallbacks []estimator.Estimator) (*serve.Server, error) {
	e.m.SetStepFusion(true)
	return serve.NewInjected(serve.Config{Seed: dataSeed}, e.t, &tracedModel{m: e.m, tr: tr}, fallbacks...)
}

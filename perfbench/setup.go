package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/pghist"
	"iam/internal/query"
	"iam/internal/sampling"
	"iam/internal/serve"
	"iam/internal/shard"
)

// workload is one traffic mix. Exactly one of clients (closed loop over
// HTTP) and burst (open loop of in-process bursts) is set.
type workload struct {
	name    string
	synth   func(rows int, seed int64) *dataset.Table
	shards  int // 0 serves a plain core.Model; K > 1 a K-shard ensemble
	clients int // closed-loop keep-alive HTTP clients
	burst   int // queries per open-loop burst
	// interval separates burst due times. It is fixed, not searched for:
	// about 1.7× the burst's drain time on a 2-vCPU host, so the server
	// idles between bursts and a burst's drain time is its capacity for
	// that shape. With less headroom, a host slowdown lets one burst run
	// into the next, and the queue turns that into a latency several times
	// larger.
	interval time.Duration
	// distinct is the closed loop's number of distinct queries, which its
	// clients cycle through. Every open-loop request carries its own query.
	distinct int
}

var workloads = []workload{
	{name: "twi-http", synth: dataset.SynthTWI, clients: 2, distinct: 512},
	{name: "wisdm-burst", synth: dataset.SynthWISDM, burst: 64, interval: 1500 * time.Millisecond},
	{name: "twi-sorted-k4", synth: sortedTWI, shards: 4, burst: 32, interval: 700 * time.Millisecond},
}

// numBursts is how many open-loop bursts are due within dur.
func (w workload) numBursts(sc scale, dur time.Duration) int {
	if sc.bursts > 0 {
		return sc.bursts
	}
	return int(math.Ceil(dur.Seconds() / w.interval.Seconds()))
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale is the size of everything a run builds. prodScale is iamserve's
// shipped configuration; the benchmark's tests run a smaller one.
type scale struct {
	rows, epochs int
	hidden       []int
	setupRepeats int // untraced runs set up this many times and report the median
	warmBursts   int // warm-up bursts (or closed-loop rounds per client)
	replay       int // recorded batches replayed for allocation and per-shard timing
	poolDiv      int // divides the accuracy set and the closed loop's distinct queries
	// bursts, when positive, fixes the open-loop burst count and the
	// closed-loop request count per client instead of the run's duration.
	bursts int
}

var prodScale = scale{rows: 20000, epochs: 8, hidden: []int{64, 32, 32, 64}, setupRepeats: 3, warmBursts: 2, replay: 4, poolDiv: 1}

// dataSeed is iamserve's default -seed: the model and table
// are the same on every run, and only the query workload follows --seed.
const dataSeed = 42

// sortedTWI is the TWI table ordered by latitude, as ingest-ordered data
// arrives: every contiguous row shard then covers one latitude band.
func sortedTWI(rows int, seed int64) *dataset.Table {
	t := dataset.SynthTWI(rows, seed)
	lat := t.Columns[0].Floats
	perm := make([]int, len(lat))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return lat[perm[a]] < lat[perm[b]] })
	for _, c := range t.Columns {
		src := c.Floats
		c.Floats = make([]float64, len(src))
		for i, p := range perm {
			c.Floats[i] = src[p]
		}
	}
	return t
}

// model is the serving surface both *core.Model and *shard.Ensemble offer.
type model interface {
	estimator.Estimator
	QuerySeed(q *query.Query) int64
	EstimateBatchSeeded(qs []*query.Query, qseeds []int64) ([]float64, error)
	SetStepFusion(on bool)
}

// env is one set-up: the table, the trained model and the server over it.
type env struct {
	t   *dataset.Table
	m   model
	ens *shard.Ensemble // nil for a plain model
	srv *serve.Server

	synthS, trainS, serveS float64
	epochS                 []float64 // per-epoch training times (traced single-model runs)
}

func (e *env) setupS() float64 { return e.synthS + e.trainS + e.serveS }

// setUp synthesizes the table, trains the model and builds the server with
// serve.Config defaults, timing each step. With a tracer, each step is a
// span and every epoch of a single-model training is a mark under it.
func setUp(w workload, sc scale, tr *tracer) (*env, error) {
	e := &env{}
	sp := tr.begin("setup.synth", -1, -1)
	start := time.Now()
	e.t = w.synth(sc.rows, dataSeed)
	e.synthS = time.Since(start).Seconds()
	tr.end(sp)

	cc := core.Config{Epochs: sc.epochs, Seed: dataSeed, Hidden: sc.hidden}
	trainSpan := tr.begin("setup.train", -1, -1)
	if tr != nil {
		last := time.Now()
		cc.OnEpoch = func(int, *core.Model, float64, float64) bool {
			now := time.Now()
			e.epochS = append(e.epochS, now.Sub(last).Seconds())
			tr.mark("train.epoch", trainSpan, -1, last, now)
			last = now
			return true
		}
	}
	start = time.Now()
	if w.shards > 1 {
		ens, err := shard.TrainContext(context.Background(), e.t, shard.Config{Config: cc, Shards: w.shards, TrainParallel: -1})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", w.name, err)
		}
		e.m, e.ens = ens, ens
	} else {
		m, err := core.TrainContext(context.Background(), e.t, cc)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", w.name, err)
		}
		e.m = m
	}
	e.trainS = time.Since(start).Seconds()
	tr.end(trainSpan)

	sp = tr.begin("setup.serve", -1, -1)
	start = time.Now()
	var err error
	if e.ens != nil {
		e.srv, err = serve.NewEnsemble(serve.Config{Seed: dataSeed}, e.t, e.ens)
	} else {
		e.srv, err = serve.New(serve.Config{Seed: dataSeed}, e.t, e.m.(*core.Model))
	}
	if err != nil {
		return nil, fmt.Errorf("building server for %s: %w", w.name, err)
	}
	e.serveS = time.Since(start).Seconds()
	tr.end(sp)
	return e, nil
}

// The accuracy set is part of every query pool: accuracySize queries from
// accuracySeed. q-error is reported over this set only. It is the same set
// on every run, so qerr_* moves only when answers change, not with the
// workload seed; a q-error tail over a seed-drawn set of a few hundred
// queries spreads by tens of percent from seed to seed.
const (
	accuracySeed = 1 << 40
	accuracySize = 256
)

// pool is the run's query set: the accuracy set plus queries drawn from the
// workload seed. Each query is rendered to the text clients send and parsed
// back, so in-process and HTTP requests carry identical query content.
// Truth is exact (query.Exec); ref holds the model's direct content-seeded
// answers, filled by computeRefs.
type pool struct {
	qs       []*query.Query
	texts    []string
	truth    []float64
	seeds    []int64
	accuracy []bool // member of the accuracy set
	ref      []float64
	// fallbacks are the server's sampling and histogram tiers, rebuilt the
	// way the serving layer builds them; both answer deterministically.
	fallbacks []estimator.Estimator
}

// newPool builds the pool for a run of length dur: as many queries as the
// open loop sends, or the closed loop's distinct queries. At least half of
// them come from the workload seed.
//
// Queries are generated per predicate count and dealt round-robin, so any
// run of NumCols consecutive queries — and so every burst — carries an
// equal share of each count. An estimate's cost grows steeply with its
// predicate count (on TWI, 2 ms for one predicate and 7–34 ms for two), so
// a burst of freely drawn queries varies in cost by the binomial spread of
// its count mix, which made burst latency swing by a fifth from seed to
// seed. The expected mix is the one query.Generate draws.
func newPool(e *env, w workload, sc scale, seed int64, dur time.Duration) (*pool, error) {
	n := w.distinct / sc.poolDiv
	if w.burst > 0 {
		n = w.burst * w.numBursts(sc, dur)
	}
	nAcc := accuracySize / sc.poolDiv
	nDrawn := max(n-nAcc, n/2)
	cols := e.t.NumCols()
	rng := rand.New(rand.NewSource(seed))
	type member struct {
		q   *query.Query
		acc bool
	}
	classes := make([][]member, cols)
	for k := 1; k <= cols; k++ {
		// Class k gets an even share of both sets, the remainder going to
		// the low classes.
		na, nd := nAcc/cols+btoi(k <= nAcc%cols), nDrawn/cols+btoi(k <= nDrawn%cols)
		acc, err := query.Generate(e.t, query.GenConfig{NumQueries: na, Seed: accuracySeed + int64(k), MinFilters: k, MaxFilters: k, SkipExec: true})
		if err != nil {
			return nil, fmt.Errorf("generating the accuracy set: %w", err)
		}
		drawn, err := query.Generate(e.t, query.GenConfig{NumQueries: nd, Seed: seed*100 + int64(k), MinFilters: k, MaxFilters: k, SkipExec: true})
		if err != nil {
			return nil, fmt.Errorf("generating queries: %w", err)
		}
		for i, q := range append(acc.Queries, drawn.Queries...) {
			classes[k-1] = append(classes[k-1], member{q, i < na})
		}
		rng.Shuffle(len(classes[k-1]), func(i, j int) { classes[k-1][i], classes[k-1][j] = classes[k-1][j], classes[k-1][i] })
	}
	p := &pool{}
	for left := nAcc + nDrawn; left > 0; {
		for k := range classes {
			if len(classes[k]) == 0 {
				continue
			}
			m := classes[k][0]
			classes[k] = classes[k][1:]
			left--
			text := m.q.String()
			q, err := query.Parse(e.t, text)
			if err != nil {
				return nil, fmt.Errorf("re-parsing %q: %w", text, err)
			}
			p.qs = append(p.qs, q)
			p.texts = append(p.texts, text)
			p.truth = append(p.truth, query.Exec(q))
			p.seeds = append(p.seeds, e.m.QuerySeed(q))
			p.accuracy = append(p.accuracy, m.acc)
		}
	}
	return p, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// computeRefs answers every pool query directly through the model with its
// content seed, in chunks of the server's batch size on two goroutines.
// Step fusion is switched off for this, so the reference comes from the
// plain per-call path; fusion never changes answers, and unfused calls use
// both cores where a fused generation runs on one. It also builds the
// fallback tiers that fallbackGave checks against.
func (p *pool) computeRefs(e *env) error {
	samp, err := sampling.New(e.t, 2000, dataSeed+5)
	if err != nil {
		return fmt.Errorf("reference sampling tier: %w", err)
	}
	hist, err := pghist.New(e.t, pghist.Config{})
	if err != nil {
		return fmt.Errorf("reference histogram tier: %w", err)
	}
	p.fallbacks = []estimator.Estimator{samp, hist}
	const chunk = 32
	m := e.m
	m.SetStepFusion(false)
	p.ref = make([]float64, len(p.qs))
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for lo := g * chunk; lo < len(p.qs); lo += 2 * chunk {
				hi := min(lo+chunk, len(p.qs))
				res, err := m.EstimateBatchSeeded(p.qs[lo:hi], p.seeds[lo:hi])
				if err != nil {
					errs <- fmt.Errorf("reference estimates: %w", err)
					return
				}
				copy(p.ref[lo:hi], res)
			}
			errs <- nil
		}(g)
	}
	err1, err2 := <-errs, <-errs
	if err1 != nil {
		return err1
	}
	return err2
}

// fallbackGave reports whether one of the server's fallback tiers answers
// pool query qi with exactly these bits.
func (p *pool) fallbackGave(qi int, bits uint64) bool {
	for _, f := range p.fallbacks {
		if v, err := f.Estimate(p.qs[qi]); err == nil && math.Float64bits(v) == bits {
			return true
		}
	}
	return false
}

// qerrs returns the accuracy set's q-errors against exact truth, floored
// at one row.
func (p *pool) qerrs(rows int) []float64 {
	var out []float64
	for i, est := range p.ref {
		if p.accuracy[i] {
			out = append(out, estimator.QError(p.truth[i], est, 1/float64(rows)))
		}
	}
	return out
}

func validSel(v float64) bool { return !math.IsNaN(v) && v >= 0 && v <= 1 }

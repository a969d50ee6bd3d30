package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"iam/internal/query"
	"iam/internal/serve"
)

type options struct {
	seed     int64
	dur      time.Duration
	traced   bool
	traceDir string // traced runs write their spans here; empty skips the dump
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	host              []metric // calibration figures, printed to stderr on every run
}

// phase is one warmed, timed pass of a workload against one server.
type phase struct {
	samples        []sample
	warmS          float64
	timed          time.Duration // offset at which the timed part started
	heapMB         float64
	st0, st1       serve.Stats
	mem0, mem1     runtime.MemStats
	visit0, visit1 [2]uint64 // ensemble (visited, skipped) counters
}

// run sets up, measures and checks one workload. An untraced run reports
// the end-to-end metrics. A traced run measures the same phase untraced and
// then traced, and reports the per-layer metrics.
func run(w workload, sc scale, o options) (*result, error) {
	origin := time.Now()
	last := origin
	lap := func(step string) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "perfbench: %-10s %6.2f s\n", step, now.Sub(last).Seconds())
		last = now
	}
	calib0 := calibrate()
	var tr *tracer
	repeats := sc.setupRepeats
	if o.traced {
		tr, repeats = newTracer(origin), 1
	}
	var e *env
	var setups []float64
	for r := 0; r < repeats; r++ {
		if e != nil {
			if err := e.srv.Close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", r, err)
			}
			e = nil
		}
		runtime.GC() // every set-up starts from the same live heap
		var err error
		if e, err = setUp(w, sc, tr); err != nil {
			return nil, err
		}
		setups = append(setups, e.setupS())
	}
	lap("set-up")
	p, err := newPool(e, w, sc, o.seed, o.dur)
	if err != nil {
		return nil, err
	}
	lap("pool")

	a, err := runPhase(e, e.srv, w, p, sc, o.dur, nil, origin)
	if cerr := e.srv.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing server: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	lap("measure")
	if err := p.computeRefs(e); err != nil {
		return nil, err
	}
	lap("reference")
	ta := check(a.samples, p)
	res := &result{correct: ta.correct(), attempted: ta.attempted, failed: ta.attempted - ta.answered}
	if !o.traced {
		res.metrics = endToEnd(a, ta, p, e.t.NumRows(), setups)
	} else {
		srv, err := tracedServer(e, tr, p.fallbacks)
		if err != nil {
			return nil, err
		}
		b, err := runPhase(e, srv, w, p, sc, o.dur, tr, origin)
		if cerr := srv.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing traced server: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		lap("traced")
		tb := check(b.samples, p)
		same := sameAnswers(a.samples, b.samples, ta, tb)
		res.correct = res.correct && tb.correct() && same
		res.attempted += tb.attempted
		res.failed += tb.attempted - tb.answered
		if !same {
			fmt.Fprintln(os.Stderr, "perfbench: traced answers differ from untraced answers")
		}
		m, replayOK, err := perLayer(e, w, sc, tr, a, b, ta, tb, p)
		if err != nil {
			return nil, err
		}
		res.correct = res.correct && replayOK
		res.metrics = m
		lap("replay")
		if o.traceDir != "" {
			if err := tr.write(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
				return nil, err
			}
		}
	}
	calib1 := calibrate()
	res.host = []metric{{"host.calib_ms", "ms", calib0}, {"host.drift_frac", "frac", calib1/calib0 - 1}}
	if o.traced {
		res.metrics = append(res.metrics, res.host...)
	}
	return res, nil
}

// runPhase warms srv with the workload's own traffic shape, then runs the
// timed part for dur and records counters around it.
func runPhase(e *env, srv *serve.Server, w workload, p *pool, sc scale, dur time.Duration, tr *tracer, origin time.Time) (ph *phase, err error) {
	// Warm-up requests are not traced; their model batches are, and are
	// told apart by time.
	l := &loader{w: w, p: p, srv: srv, origin: origin}
	ph = &phase{}
	if w.clients > 0 {
		stop, lerr := l.serveHTTP()
		if lerr != nil {
			return nil, lerr
		}
		defer func() {
			if serr := stop(); err == nil && serr != nil {
				ph, err = nil, serr
			}
		}()
	}
	start := time.Now()
	if w.clients > 0 {
		if _, err := l.closedLoop(0, 16*sc.warmBursts); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	} else {
		l.bursts(sc.warmBursts, 0)
	}
	ph.warmS = time.Since(start).Seconds()

	l.tr = tr
	runtime.GC()
	ph.st0, ph.visit0 = srv.Stats(), visits(e)
	runtime.ReadMemStats(&ph.mem0)
	ph.timed = l.now()
	if w.clients > 0 {
		stopAt, per := ph.timed+dur, 0
		if sc.bursts > 0 {
			per = sc.bursts
		}
		if ph.samples, err = l.closedLoop(stopAt, per); err != nil {
			return nil, err
		}
	} else {
		ph.samples = l.bursts(w.numBursts(sc, dur), w.interval)
	}
	runtime.ReadMemStats(&ph.mem1)
	ph.st1, ph.visit1 = srv.Stats(), visits(e)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ph.heapMB = float64(live.HeapAlloc) / 1e6
	return ph, nil
}

func visits(e *env) [2]uint64 {
	if e.ens == nil {
		return [2]uint64{}
	}
	v, s := e.ens.EarlyStopStats()
	return [2]uint64{v, s}
}

// tally is the correctness check of one phase. A request counts as
// answered only if it got a reply, the reply is a selectivity in [0,1], and
// it is bit-identical to the answer of the tier that gave it: the model's
// direct content-seeded answer for the same query, or, when the server
// degraded to its sampling or histogram tier, that tier's answer. A reply
// that matches neither is a mismatch.
type tally struct {
	attempted, answered, model, invalid, mismatched int
	good, fromModel                                 []bool
}

func (t tally) correct() bool { return t.invalid == 0 && t.mismatched == 0 }

func check(ss []sample, p *pool) tally {
	t := tally{attempted: len(ss), good: make([]bool, len(ss)), fromModel: make([]bool, len(ss))}
	for i, s := range ss {
		bits := math.Float64bits(s.sel)
		switch {
		case !s.ok:
		case !validSel(s.sel):
			t.invalid++
		case s.source == serve.SourceBatch && bits == math.Float64bits(p.ref[s.qi]):
			t.good[i], t.fromModel[i] = true, true
			t.answered++
			t.model++
		case p.fallbackGave(s.qi, bits):
			t.good[i] = true
			t.answered++
		default:
			t.mismatched++
		}
	}
	if t.invalid+t.mismatched > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d invalid and %d mismatched answers of %d\n", t.invalid, t.mismatched, t.attempted)
	}
	return t
}

// sameAnswers reports whether every request the model answered in both
// phases got the same bits. Request ids map to the same pool query in both
// phases.
func sameAnswers(a, b []sample, ta, tb tally) bool {
	byReq := make(map[int]uint64, len(a))
	for i, s := range a {
		if ta.fromModel[i] {
			byReq[s.req] = math.Float64bits(s.sel)
		}
	}
	for i, s := range b {
		if bits, ok := byReq[s.req]; ok && tb.fromModel[i] && bits != math.Float64bits(s.sel) {
			return false
		}
	}
	return true
}

func endToEnd(a *phase, t tally, p *pool, rows int, setups []float64) []metric {
	latP50, latP90 := latencies(a, t)
	q := p.qerrs(rows)
	return []metric{
		{"setup_s", "s", median(setups)},
		{"lat_p50_ms", "ms", latP50},
		{"lat_p90_ms", "ms", latP90},
		{"busy_qps", "1/s", float64(t.answered) / max(busyTime(a.samples).Seconds(), 1e-9)},
		{"ok_frac", "frac", float64(t.answered) / float64(t.attempted)},
		{"model_frac", "frac", frac(t.model, t.answered)},
		{"qerr_p50", "ratio", pct(q, 0.50)},
		{"qerr_p95", "ratio", pct(q, 0.95)},
		{"heap_live_mb", "MB", a.heapMB},
	}
}

// latencies returns the p50 and p90 request latency in ms, each request
// timed from when it was due. A missed request ranks as slower than every
// answered one; a percentile that lands on a miss reports the phase's
// whole length.
func latencies(ph *phase, t tally) (p50, p90 float64) {
	lat := make([]float64, len(ph.samples))
	var last time.Duration
	for i, s := range ph.samples {
		lat[i] = math.Inf(1)
		if t.good[i] {
			lat[i] = ms(s.done - s.due)
		}
		last = max(last, s.done)
	}
	whole := ms(last - ph.timed)
	capInf := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return whole
		}
		return v
	}
	return capInf(pct(lat, 0.50)), capInf(pct(lat, 0.90))
}

// busyTime is the wall time during which at least one request was
// outstanding.
func busyTime(ss []sample) time.Duration {
	iv := make([][2]time.Duration, len(ss))
	for i, s := range ss {
		iv[i] = [2]time.Duration{s.sent, s.done}
	}
	return union(iv)
}

func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		hi = max(hi, v[1])
	}
	return total + hi - lo
}

func perLayer(e *env, w workload, sc scale, tr *tracer, a, b *phase, ta, t tally, p *pool) ([]metric, bool, error) {
	var batches []span
	for _, s := range tr.named("model.batch") {
		if time.Duration(s.Start) >= b.timed {
			batches = append(batches, s)
		}
	}
	queue := queueTimes(tr, batches, b, t, p)
	var httpMs, parseUs, lateMs []float64
	for i, s := range b.samples {
		if w.clients > 0 && t.good[i] {
			httpMs = append(httpMs, ms(s.done-s.sent-s.elapsed))
			parseUs = append(parseUs, float64(s.parse)/1e3)
		}
		if w.burst > 0 {
			lateMs = append(lateMs, ms(s.sent-s.due))
		}
	}

	var batchMs []float64
	var spansIv [][2]time.Duration
	var sumDur time.Duration
	queries := 0
	for _, s := range batches {
		batchMs = append(batchMs, ms(s.dur()))
		spansIv = append(spansIv, [2]time.Duration{time.Duration(s.Start), time.Duration(s.End)})
		sumDur += s.dur()
		queries += len(s.qs)
	}
	busy := union(spansIv)

	alloc, replayOK, err := replayAlloc(e, sc, tr, batches, p)
	if err != nil {
		return nil, false, err
	}
	shardMs, slowest, err := replayShards(e, sc, tr, batches)
	if err != nil {
		return nil, false, err
	}
	var visitsPerQ, skipped float64
	if e.ens != nil {
		dv, ds := b.visit1[0]-b.visit0[0], b.visit1[1]-b.visit0[1]
		visitsPerQ = frac(int(dv), queries)
		skipped = frac(int(ds), int(dv+ds))
	}

	c0, c1 := b.st0.Cascade, b.st1.Cascade
	var fbServed, failures uint64
	for i := range c1 {
		if i > 0 {
			fbServed += c1[i].Served - c0[i].Served
		}
		failures += c1[i].Failures() - c0[i].Failures()
	}

	epochP50 := e.trainS / float64(sc.epochs) // ensembles do not report epochs
	if len(e.epochS) > 0 {
		epochP50 = median(e.epochS)
	}
	kq := float64(t.attempted) / 1e3
	aP50, _ := latencies(a, ta)
	bP50, _ := latencies(b, t)
	return []metric{
		{"serve.queue_ms_p50", "ms", pct(queue, 0.5)},
		{"serve.batch_size_mean", "count", float64(b.st1.Accepted-b.st0.Accepted) / float64(max(1, b.st1.Batches-b.st0.Batches))},
		{"serve.rejected", "count", float64(b.st1.Rejected - b.st0.Rejected)},
		{"serve.http_ms_p50", "ms", pct(httpMs, 0.5)},
		{"query.parse_us_p50", "us", pct(parseUs, 0.5)},
		{"guard.model_served", "count", float64(c1[0].Served - c0[0].Served)},
		{"guard.fallback_served", "count", float64(fbServed)},
		{"guard.failures", "count", float64(failures)},
		{"core.batch_ms_p50", "ms", pct(batchMs, 0.5)},
		{"core.batch_ms_p90", "ms", pct(batchMs, 0.9)},
		{"core.busy_ms_per_query", "ms", ms(busy) / float64(max(1, queries))},
		{"core.concurrency", "count", float64(sumDur) / float64(max(1, busy))},
		{"core.alloc_kb_per_query", "kB", alloc},
		{"shard.batch_ms_p50", "ms", shardMs},
		{"shard.visits_per_query", "count", visitsPerQ},
		{"shard.skipped_frac", "frac", skipped},
		{"shard.slowest_over_mean", "ratio", slowest},
		{"setup.synth_s", "s", e.synthS},
		{"setup.train_s", "s", e.trainS},
		{"setup.serve_s", "s", e.serveS},
		{"setup.warm_s", "s", a.warmS},
		{"train.epoch_s_p50", "s", epochP50},
		{"train.rows_per_s", "1/s", float64(sc.rows*sc.epochs) / e.trainS},
		{"runtime.gc_per_kq", "count", float64(b.mem1.NumGC-b.mem0.NumGC) / kq},
		{"runtime.alloc_kb_per_query", "kB", float64(b.mem1.TotalAlloc-b.mem0.TotalAlloc) / 1024 / float64(t.attempted)},
		{"gen.late_ms_p90", "ms", pct(lateMs, 0.9)},
		{"trace.overhead_frac", "frac", bP50/aP50 - 1},
	}, replayOK, nil
}

// queueTimes links each model-answered request to the model batch that
// answered it (the batch ran the request's content seed inside the
// request's interval) and returns the request's server time outside that
// batch, in ms.
func queueTimes(tr *tracer, batches []span, b *phase, t tally, p *pool) []float64 {
	bySeed := map[int64][]int{}
	for bi, s := range batches {
		for _, sd := range s.seeds {
			bySeed[sd] = append(bySeed[sd], bi)
		}
	}
	reqs := make([][]int, len(batches))
	var out []float64
	for i, s := range b.samples {
		if !t.good[i] || s.source != serve.SourceBatch {
			continue
		}
		for _, bi := range bySeed[p.seeds[s.qi]] {
			bs := &batches[bi]
			if time.Duration(bs.Start) < s.sent || time.Duration(bs.End) > s.done {
				continue
			}
			server := s.done - s.sent
			if s.elapsed > 0 {
				server = s.elapsed
			}
			out = append(out, ms(server-bs.dur()))
			reqs[bi] = append(reqs[bi], s.req)
			break
		}
	}
	for bi, r := range reqs {
		tr.setReqs(batches[bi].ID, r)
	}
	return out
}

// replayAlloc replays the first recorded model batches one after another
// and returns the bytes the model allocated per query, in kB. It also
// reports whether every replayed answer equals the reference.
func replayAlloc(e *env, sc scale, tr *tracer, batches []span, p *pool) (float64, bool, error) {
	ref := make(map[int64]float64, len(p.seeds))
	for i, sd := range p.seeds {
		ref[sd] = p.ref[i]
	}
	n := min(sc.replay, len(batches))
	ok, queries := true, 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range batches[:n] {
		start := time.Now()
		res, err := e.m.EstimateBatchSeeded(s.qs, s.seeds)
		tr.mark("replay.batch", s.ID, -1, start, time.Now())
		if err != nil {
			return 0, false, fmt.Errorf("replaying a batch: %w", err)
		}
		for i, v := range res {
			ok = ok && math.Float64bits(v) == math.Float64bits(ref[s.seeds[i]])
		}
		queries += len(s.qs)
	}
	runtime.ReadMemStats(&m1)
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: replayed answers differ from the reference")
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(1, queries)), ok, nil
}

// replayShards replays the first recorded batches through every shard
// model of an ensemble, one shard after another. It returns the median
// per-shard batch time in ms and the median over batches of the slowest
// shard's time over the mean shard time.
func replayShards(e *env, sc scale, tr *tracer, batches []span) (float64, float64, error) {
	if e.ens == nil {
		return 0, 0, nil
	}
	var all, ratios []float64
	for _, s := range batches[:min(sc.replay, len(batches))] {
		var ts []float64
		for si := 0; si < e.ens.NumShards(); si++ {
			sm, st := e.ens.ShardModel(si), e.ens.ShardTable(si)
			sub := make([]*query.Query, len(s.qs))
			seeds := make([]int64, len(s.qs))
			for i, q := range s.qs {
				sub[i] = &query.Query{Table: st, Ranges: q.Ranges}
				seeds[i] = sm.QuerySeed(sub[i])
			}
			start := time.Now()
			if _, err := sm.EstimateBatchSeeded(sub, seeds); err != nil {
				return 0, 0, fmt.Errorf("replaying shard %d: %w", si, err)
			}
			end := time.Now()
			tr.mark("replay.shard", s.ID, -1, start, end)
			ts = append(ts, ms(end.Sub(start)))
		}
		all = append(all, ts...)
		ratios = append(ratios, maxOf(ts)/mean(ts))
	}
	return median(all), median(ratios), nil
}

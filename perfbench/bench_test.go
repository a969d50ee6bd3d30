package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"iam/internal/serve"
)

// testScale runs every workload end to end on a small table and model,
// with fixed request counts so that counts repeat exactly. With 6000 rows
// each of the four shards still has more than 1000 distinct values per
// column, so its columns get GMMs as at full scale. At 2000 rows they are
// factored instead, a batch of 32 takes over a second, and some batches
// outlast the 2 s tier timeout and are answered by the sampling tier.
var testScale = scale{rows: 6000, epochs: 1, hidden: []int{16, 16}, setupRepeats: 2, warmBursts: 1, replay: 2, poolDiv: 4, bursts: 3}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func runAt(t *testing.T, w workload, seed int64, traced bool) map[string]metric {
	t.Helper()
	res, err := run(w, testScale, options{seed: seed, dur: time.Second, traced: traced})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.correct || res.attempted == 0 || res.failed != 0 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.correct, res.attempted, res.failed)
	}
	out := map[string]metric{}
	for _, m := range res.metrics {
		out[m.name] = m
	}
	return out
}

func TestWorkloads(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runAt(t, w, 1, false)
			traced := runAt(t, w, 1, true)
			for _, want := range d.EndToEnd {
				requireMetric(t, plain, want.Name, want.Unit)
				if plain[want.Name].value == 0 {
					t.Errorf("end-to-end metric %s is 0", want.Name)
				}
			}
			for _, want := range d.PerLayer {
				requireMetric(t, traced, want.Name, want.Unit)
			}

			// Counts repeat exactly for one seed.
			again := runAt(t, w, 1, false)
			for _, n := range []string{"qerr_p50", "qerr_p95", "ok_frac", "model_frac"} {
				if plain[n].value != again[n].value {
					t.Errorf("%s: %v then %v for the same seed", n, plain[n].value, again[n].value)
				}
			}
			if w.burst > 0 {
				// Closed-loop batching follows client timing, bursts do not.
				tracedAgain := runAt(t, w, 1, true)
				for _, n := range []string{"serve.batch_size_mean", "shard.visits_per_query", "guard.model_served"} {
					if traced[n].value != tracedAgain[n].value {
						t.Errorf("%s: %v then %v for the same seed", n, traced[n].value, tracedAgain[n].value)
					}
				}
			}
			if w.shards > 0 && traced["shard.visits_per_query"].value != float64(w.shards) {
				t.Errorf("shard.visits_per_query = %v, want %d with early stop off", traced["shard.visits_per_query"].value, w.shards)
			}
		})
	}
}

func requireMetric(t *testing.T, got map[string]metric, name, unit string) {
	t.Helper()
	m, ok := got[name]
	switch {
	case !ok:
		t.Errorf("metric %s not emitted", name)
	case m.unit != unit:
		t.Errorf("metric %s has unit %q, want %q", name, m.unit, unit)
	case math.IsNaN(m.value) || math.IsInf(m.value, 0):
		t.Errorf("metric %s = %v", name, m.value)
	}
}

func TestSeedPicksQuerySet(t *testing.T) {
	w, err := findWorkload("wisdm-burst")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.srv.Close() }()
	texts := func(seed int64) []string {
		p, err := newPool(e, w, testScale, seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return p.texts
	}
	one, oneAgain, two := texts(1), texts(1), texts(2)
	if !slices.Equal(one, oneAgain) {
		t.Error("the same seed gave two query sets")
	}
	if slices.Equal(one, two) {
		t.Error("seeds 1 and 2 gave the same query set")
	}
}

// TestFallbackAnswersPassTheGate checks that an answer from the server's
// sampling tier is accepted as a fallback answer, not as the model's, and
// that a perturbed answer is rejected.
func TestFallbackAnswersPassTheGate(t *testing.T) {
	w, err := findWorkload("twi-sorted-k4")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.srv.Close() }()
	p, err := newPool(e, w, testScale, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.computeRefs(e); err != nil {
		t.Fatal(err)
	}
	samp, err := p.fallbacks[0].Estimate(p.qs[0])
	if err != nil {
		t.Fatal(err)
	}
	ss := []sample{
		{qi: 0, ok: true, source: serve.SourceBatch, sel: p.ref[0]},
		{qi: 0, ok: true, source: serve.SourceBatch, sel: samp},
		{qi: 0, ok: true, source: serve.SourceBatch, sel: math.Nextafter(p.ref[0], 2)},
	}
	got := check(ss, p)
	if got.answered != 2 || got.model != 1 || got.mismatched != 1 {
		t.Errorf("answered=%d model=%d mismatched=%d, want 2, 1, 1", got.answered, got.model, got.mismatched)
	}
}

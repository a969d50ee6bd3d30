package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"iam/internal/query"
	"iam/internal/serve"
)

// sample is one sent request. Times are offsets from the run's origin.
type sample struct {
	req, qi         int
	due, sent, done time.Duration
	sel             float64
	source          string
	ok              bool          // answered without error (HTTP 200)
	elapsed         time.Duration // HTTP: the server's own Estimate time (elapsed_us)
	parse           time.Duration // traced HTTP: query.Parse of the request text
}

// loader drives one server with a workload's traffic.
type loader struct {
	w      workload
	p      *pool
	srv    *serve.Server
	tr     *tracer
	origin time.Time
	url    string // set for the closed loop
	client *http.Client
}

func (l *loader) now() time.Duration { return time.Since(l.origin) }

// bursts is the open loop: burst i of w.burst distinct pool queries is due
// at start + i·interval and sent whether or not earlier bursts drained.
// With a zero interval each burst waits for the previous one (warm-up).
func (l *loader) bursts(n int, interval time.Duration) []sample {
	b := l.w.burst
	out := make([]sample, n*b)
	start := l.now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		if interval == 0 {
			wg.Wait()
			due = l.now()
		}
		time.Sleep(due - l.now())
		for j := 0; j < b; j++ {
			s := &out[i*b+j]
			s.req, s.qi, s.due = i*b+j, (i*b+j)%len(l.p.qs), due
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.estimate(s)
			}()
		}
	}
	wg.Wait()
	return out
}

func (l *loader) estimate(s *sample) {
	s.sent = l.now()
	res, err := l.srv.Estimate(context.Background(), l.p.qs[s.qi])
	s.done = l.now()
	s.sel, s.source, s.ok = res.Selectivity, res.Source, err == nil
	l.tr.mark("serve.estimate", -1, s.req, l.origin.Add(s.sent), l.origin.Add(s.done))
}

// closedLoop runs w.clients keep-alive HTTP clients, each posting its next
// query as soon as the previous reply arrives, until stop (an offset from
// the origin) or until each client has sent perClient requests.
func (l *loader) closedLoop(stop time.Duration, perClient int) ([]sample, error) {
	c := l.w.clients
	per := make([][]sample, c)
	errs := make([]error, c)
	var wg sync.WaitGroup
	for ci := 0; ci < c; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; perClient <= 0 || k < perClient; k++ {
				if perClient <= 0 && l.now() >= stop {
					return
				}
				req := ci + c*k
				s := sample{req: req, qi: req % len(l.p.qs)}
				if err := l.post(&s); err != nil {
					errs[ci] = err
					return
				}
				per[ci] = append(per[ci], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for ci := range per {
		out = append(out, per[ci]...)
	}
	return out, errors.Join(errs...)
}

// post sends one /estimate request. Transport errors abort the run; any
// HTTP status other than 200 is a miss.
func (l *loader) post(s *sample) error {
	text := l.p.texts[s.qi]
	body, err := json.Marshal(serve.EstimateRequest{Query: text})
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	s.sent = l.now()
	s.due = s.sent
	root := -1
	if l.tr != nil {
		// The handler parses the same text; timing it here shows that cost.
		root = l.tr.begin("http.roundtrip", -1, s.req)
		ps := time.Now()
		if _, err := query.Parse(l.p.qs[s.qi].Table, text); err != nil {
			return fmt.Errorf("parsing %q: %w", text, err)
		}
		s.parse = time.Since(ps)
		l.tr.mark("query.parse", root, s.req, ps, ps.Add(s.parse))
	}
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("posting /estimate: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() //lint:ignore errwrap the body is fully read; closing it only returns the connection to the pool
	if err != nil {
		return fmt.Errorf("reading /estimate reply: %w", err)
	}
	s.done = l.now()
	if root >= 0 {
		l.tr.end(root)
	}
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var er serve.EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		return fmt.Errorf("decoding /estimate reply: %w", err)
	}
	s.sel, s.source, s.ok = er.Selectivity, er.Source, true
	s.elapsed = time.Duration(er.ElapsedUs) * time.Microsecond
	return nil
}

// serveHTTP exposes srv's handler on a loopback port for the closed loop
// and returns a function that shuts the listener down and waits for it.
func (l *loader) serveHTTP() (func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	hs := &http.Server{Handler: l.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: l.w.clients, MaxIdleConnsPerHost: l.w.clients, DisableCompression: true}
	l.client = &http.Client{Transport: tr}
	l.url = "http://" + ln.Addr().String() + "/estimate"
	return func() error {
		tr.CloseIdleConnections()
		err := hs.Shutdown(context.Background())
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		if err != nil {
			return fmt.Errorf("stopping the HTTP listener: %w", err)
		}
		return nil
	}, nil
}

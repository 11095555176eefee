package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue"
	"nbqueue/internal/jobs"
)

// The jobs-http workload is an open loop over loopback HTTP: one pusher
// POSTs a seeded Poisson schedule of jobs, one worker FETCHes and ACKs
// them, against jobs.NewHandler(jobs.New(cfg)) in this process.
const (
	jobsRate   = 1000 // offered jobs/s
	jobsQueue  = "ladder"
	jobsWorker = "ladder-worker"
	jobsWaitMS = 100 // FETCH long-poll window
	jobsSetups = 31
	jobsDrain  = 10 * time.Second
	// jobsTraceEvery is the share of jobs whose spans the traced pass
	// keeps; its metrics use every job.
	jobsTraceEvery = 4
	// keyHeader carries the benchmark's request key (the job's schedule
	// index for PUSH and ACK, the fetch number for FETCH) so the traced
	// pass can join client, handler and hook timestamps.
	keyHeader = "X-Ladder-Key"
)

// jobsConfig mirrors the fifojobd flag defaults, failure injection off.
func jobsConfig(hook func(jobs.Event)) jobs.Config {
	return jobs.Config{
		DefaultVisibility:  30 * time.Second,
		DefaultTimeout:     5 * time.Minute,
		DefaultMaxAttempts: 3,
		Retry:              jobs.RetryPolicy{Base: 500 * time.Millisecond, Factor: 2, Max: time.Minute},
		Tick:               20 * time.Millisecond,
		Metrics:            nbqueue.NewMetrics(),
		QueueOptions:       []nbqueue.Option{nbqueue.WithMemoryBound(64), nbqueue.WithSegmentWatermarks(8, 16)},
		Hook:               hook,
	}
}

// jobsSchedule is the generated input of one pass.
type jobsSchedule struct {
	due  []int64  // ns after the window starts
	args []uint32 // each job's seeded argument
}

func newJobsSchedule(seed uint64, window time.Duration) *jobsSchedule {
	rng := rand.New(rand.NewPCG(seed, 0x70b5))
	s := &jobsSchedule{}
	mean := 1e9 / float64(jobsRate)
	for t := rng.ExpFloat64() * mean; t < float64(window); t += rng.ExpFloat64() * mean {
		s.due = append(s.due, int64(t))
		s.args = append(s.args, rng.Uint32())
	}
	return s
}

// jobsSystem is one server under test and the benchmark's client.
type jobsSystem struct {
	tr     *jobsTracer // nil when untraced
	srv    *jobs.Server
	hs     *http.Server
	served chan error
	base   string
	tp     *http.Transport
	client *http.Client
}

// build starts the server on an ephemeral loopback port and completes
// one PUSH → FETCH → ACK cycle: the set-up that setup_s times.
func (s *jobsSystem) build() error {
	var hook func(jobs.Event)
	if s.tr != nil {
		hook = s.tr.hook
	}
	s.srv = jobs.New(jobsConfig(hook))
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Stop()
		return fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = jobs.NewHandler(s.srv)
	if s.tr != nil {
		h = s.tr.wrap(h)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	// Two connections at most: one for the pusher, one for the worker.
	s.tp = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.client = &http.Client{Transport: s.tp, Timeout: 10 * time.Second}

	status, id, err := s.push(-1, 0)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		s.teardown()
		return fmt.Errorf("first PUSH: %w", err)
	}
	status, got, err := s.fetch(-1)
	if err == nil && (status != http.StatusOK || len(got) != 1 || got[0].ID != id) {
		err = fmt.Errorf("status %d, jobs %v, want job %s", status, got, id)
	}
	if err != nil {
		s.teardown()
		return fmt.Errorf("first FETCH: %w", err)
	}
	if status, err = s.ack(-1, id); err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		s.teardown()
		return fmt.Errorf("first ACK: %w", err)
	}
	return nil
}

// teardown shuts the HTTP server down, closes the client's connections
// and stops the job server's ticker, each bounded.
func (s *jobsSystem) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.tp.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Stop()
	if err != nil {
		return fmt.Errorf("shutting the HTTP server down: %w", err)
	}
	return nil
}

// post sends body to path with the request key and returns the status
// and the response body.
func (s *jobsSystem) post(path string, key int, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(keyHeader, strconv.Itoa(key))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// push submits the job with schedule index seq and returns its ID.
func (s *jobsSystem) push(seq int, arg uint32) (int, string, error) {
	body := fmt.Appendf(nil, `{"args":{"seq":%d,"arg":%d}}`, seq, arg)
	status, data, err := s.post("/ojs/queues/"+jobsQueue+"/jobs", seq, body)
	if err != nil || status != http.StatusCreated {
		return status, "", err
	}
	var env struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.ID == "" {
		return status, "", fmt.Errorf("decoding the PUSH response %q: %v", data, err)
	}
	return status, env.ID, nil
}

type fetchedJob struct {
	ID   string `json:"id"`
	Args struct {
		Seq int    `json:"seq"`
		Arg uint32 `json:"arg"`
	} `json:"args"`
}

// fetch long-polls for one job; k numbers the fetch.
func (s *jobsSystem) fetch(k int) (int, []fetchedJob, error) {
	body := fmt.Appendf(nil, `{"queues":[%q],"worker":%q,"count":1,"wait_ms":%d}`, jobsQueue, jobsWorker, jobsWaitMS)
	status, data, err := s.post("/ojs/fetch", k, body)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var got struct {
		Jobs []fetchedJob `json:"jobs"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return status, nil, fmt.Errorf("decoding the FETCH response %q: %w", data, err)
	}
	return status, got.Jobs, nil
}

func (s *jobsSystem) ack(seq int, id string) (int, error) {
	body := fmt.Appendf(nil, `{"worker":%q}`, jobsWorker)
	status, _, err := s.post("/ojs/jobs/"+id+"/ack", seq, body)
	return status, err
}

// jobsRun is what the pusher and the worker saw in the window. Times
// are ns after the window starts.
type jobsRun struct {
	start    time.Time
	accepted []string // job ID per schedule index, "" unless PUSH returned 201
	ackAt    []int64  // when the ACK returned 2xx, or -1
	acks     []uint8  // 2xx ACKs per schedule index
	ackedID  []string
	late     []float64 // generator lateness per measured PUSH, ns
	// The CPU and runtime counters when the measured window opened, at
	// the first job due after the warm-up.
	cpu0 time.Duration
	rt0  runtimeSample

	acceptedN, ackedN    atomic.Int64
	pusherDone, stop     atomic.Bool
	pushFails, ackFails  uint64 // non-2xx responses and transport errors
	conflicts, fetchErrs uint64
	fetches, emptyFetch  uint64
	firstErr             error // first transport error, for the message
	pusherErr            error

	// Client-side request intervals, traced pass only.
	pushC, ackC [][2]int64
	fetchC      [][2]int64
	fetchJob    []int // schedule index each fetch delivered, or -1
}

// pushAll sends the schedule open-loop: everything due goes out, then
// the pusher sleeps until the next due time.
func (s *jobsSystem) pushAll(sc *jobsSchedule, r *jobsRun) {
	defer r.pusherDone.Store(true)
	for i := 0; i < len(sc.due); {
		if r.stop.Load() {
			r.pushFails += uint64(len(sc.due) - i)
			return
		}
		now := int64(time.Since(r.start))
		if d := sc.due[i] - now; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		if sc.due[i] >= int64(warmup) {
			if r.late == nil {
				r.cpu0, r.rt0 = cpuTime(), sampleRuntime()
				r.late = make([]float64, 0, len(sc.due))
			}
			r.late = append(r.late, float64(now-sc.due[i]))
		}
		a := s.stamp()
		status, id, err := s.push(i, sc.args[i])
		if s.tr != nil {
			r.pushC[i] = [2]int64{a, s.stamp()}
		}
		switch {
		case err != nil:
			r.pushFails++
			if r.pusherErr == nil {
				r.pusherErr = err
			}
		case status != http.StatusCreated:
			r.pushFails++
		default:
			r.accepted[i] = id
			r.acceptedN.Add(1)
		}
		i++
	}
}

// stamp reads the tracer clock in the traced pass.
func (s *jobsSystem) stamp() int64 {
	if s.tr == nil {
		return 0
	}
	return s.tr.clk.now()
}

// work fetches and acks until the pusher is done and every accepted job
// is acked, or until told to stop.
func (s *jobsSystem) work(r *jobsRun) {
	for !r.stop.Load() {
		if r.pusherDone.Load() && r.ackedN.Load() == r.acceptedN.Load() {
			return
		}
		k := int(r.fetches)
		r.fetches++
		a := s.stamp()
		status, got, err := s.fetch(k)
		if s.tr != nil {
			r.fetchC = append(r.fetchC, [2]int64{a, s.stamp()})
			r.fetchJob = append(r.fetchJob, -1)
		}
		if err != nil || status != http.StatusOK {
			r.fetchErrs++
			if err != nil && r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		if len(got) == 0 {
			r.emptyFetch++
			continue
		}
		for _, j := range got {
			seq := j.Args.Seq
			if seq < 0 || seq >= len(r.ackAt) {
				r.ackFails++
				continue
			}
			if s.tr != nil {
				r.fetchJob[k] = seq
			}
			a := s.stamp()
			status, err := s.ack(seq, j.ID)
			at := int64(time.Since(r.start))
			if s.tr != nil {
				r.ackC[seq] = [2]int64{a, s.stamp()}
			}
			switch {
			case err != nil:
				r.ackFails++
				if r.firstErr == nil {
					r.firstErr = err
				}
			case status == http.StatusConflict:
				r.conflicts++
			case status < 200 || status > 299:
				r.ackFails++
			default:
				r.acks[seq]++
				r.ackedID[seq] = j.ID
				r.ackAt[seq] = at
				r.ackedN.Add(1)
			}
		}
	}
}

// check verifies that every 201-accepted job was acked exactly once
// with a 2xx, by the ID PUSH returned, and that no ACK returned 409.
func (r *jobsRun) check() error {
	if r.conflicts != 0 {
		return checkFailed("%d ACKs returned 409 Conflict", r.conflicts)
	}
	for i, id := range r.accepted {
		switch {
		case id == "" && r.acks[i] != 0:
			return checkFailed("job %d was acked but its PUSH was not accepted", i)
		case id != "" && r.acks[i] != 1:
			return checkFailed("job %d (%s) was acked %d times, want once", i, id, r.acks[i])
		case id != "" && r.ackedID[i] != id:
			return checkFailed("job %d was pushed as %s but acked as %s", i, id, r.ackedID[i])
		}
	}
	return nil
}

func runJobsHTTP(p *pass) (*outcome, error) {
	sched := newJobsSchedule(p.seed, warmup+p.window)
	n := len(sched.due)

	p.wd.enter("setup")
	var setups []float64
	var s *jobsSystem
	for i := 0; i < jobsSetups; i++ {
		s = &jobsSystem{}
		if p.traced {
			s.tr = newJobsTracer()
		}
		t0 := startSetup()
		if err := s.build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < jobsSetups-1 {
			if err := s.teardown(); err != nil {
				return nil, err
			}
		}
	}

	r := &jobsRun{
		accepted: make([]string, n),
		ackAt:    make([]int64, n),
		acks:     make([]uint8, n),
		ackedID:  make([]string, n),
	}
	for i := range r.ackAt {
		r.ackAt[i] = -1
	}
	if p.traced {
		r.pushC = make([][2]int64, n)
		r.ackC = make([][2]int64, n)
	}
	heap0 := heapAfterGC()

	p.wd.enter("measure")
	r.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.pushAll(sched, r) }()
	go func() { defer wg.Done(); s.work(r) }()
	// The worker returns by itself once every accepted job is acked;
	// the timer bounds the wait for stragglers.
	drainTimer := time.AfterFunc(warmup+p.window+jobsDrain, func() { r.stop.Store(true) })
	wg.Wait()
	drainTimer.Stop()
	cpu, rt1 := cpuTime()-r.cpu0, sampleRuntime()
	heap := heapAfterGC()
	var tracked float64
	for _, g := range s.srv.Gauges() {
		if g.Name == "jobs_tracked" {
			tracked = g.Value()
		}
	}
	p.wd.enter("teardown")
	if err := s.teardown(); err != nil {
		return nil, err
	}

	if err := r.check(); err != nil {
		return nil, err
	}
	if r.pusherErr != nil || r.firstErr != nil {
		fmt.Printf("ladderbench: jobs-http transport errors: push %v, fetch/ack %v\n", r.pusherErr, r.firstErr)
	}
	if missing := r.acceptedN.Load() - r.ackedN.Load(); missing != 0 {
		return nil, checkFailed("%d accepted jobs were not acked within %v of the window's end", missing, jobsDrain)
	}
	var lat []float64
	var lastAck int64
	for i, at := range r.ackAt {
		if at >= 0 && sched.due[i] >= int64(warmup) {
			lat = append(lat, float64(at-sched.due[i]))
			lastAck = max(lastAck, at)
		}
	}
	acked := float64(len(lat))
	if acked == 0 {
		return nil, checkFailed("no job was acked")
	}

	o := &outcome{e2e: metricSet{}, attempted: uint64(n), failed: r.pushFails + r.ackFails + r.fetchErrs}
	o.e2e.put("throughput_per_s", acked/(float64(lastAck-int64(warmup))/1e9), "1/s")
	o.e2e.put("latency_p50_us", usec(quantile(lat, 0.50)), "us")
	o.e2e.put("cpu_us_per_op", usec(float64(cpu))/acked, "us")
	o.e2e.put("heap_after_gc_mb", float64(heap)/(1<<20), "MB")
	o.e2e.put("setup_s", median(setups), "s")
	if !p.traced {
		return o, nil
	}

	o.layer = metricSet{}
	s.tr.layer(o.layer, r)
	o.layer.put("jobs.fetch_empty_ratio", ratio(float64(r.emptyFetch), float64(r.fetches)), "ratio")
	o.layer.put("jobs.tracked_end", tracked, "count")
	o.layer.put("jobs.heap_bytes_per_job", (float64(heap)-float64(heap0))/float64(r.acceptedN.Load()), "B")
	putRuntime(o.layer, r.rt0, rt1, acked)
	o.layer.put("runtime.gen_late_us_p50", usec(quantile(r.late, 0.50)), "us")
	o.layer.put("runtime.gen_late_us_p99", usec(quantile(r.late, 0.99)), "us")
	o.layer.put(p.workload+".latency_p90_us", usec(quantile(lat, 0.90)), "us")
	o.layer.put(p.workload+".latency_p99_us", usec(quantile(lat, 0.99)), "us")
	o.spans = s.tr.spans(p.workload, r, int64(r.start.Sub(s.tr.clk.base)), sched)
	return o, nil
}

// jobsTracer records the server side of the traced pass: handler
// intervals from a ServeHTTP wrapper and lifecycle instants from
// Config.Hook. Hook and handler run on server goroutines, so both
// record under a mutex.
type jobsTracer struct {
	clk clock

	mu       sync.Mutex
	handlers map[handlerKey][2]int64
	events   map[string]*jobEvents // by job ID
}

type handlerKey struct {
	route string // push, fetch or ack
	key   int    // the request key header
}

type jobEvents struct{ pushed, fetched, acked int64 }

func newJobsTracer() *jobsTracer {
	return &jobsTracer{clk: newClock(), handlers: map[handlerKey][2]int64{}, events: map[string]*jobEvents{}}
}

func (t *jobsTracer) hook(e jobs.Event) {
	now := t.clk.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := t.events[e.JobID]
	if ev == nil {
		ev = &jobEvents{}
		t.events[e.JobID] = ev
	}
	switch e.Kind {
	case jobs.EventPushed:
		ev.pushed = now
	case jobs.EventFetched:
		ev.fetched = now
	case jobs.EventAcked:
		ev.acked = now
	}
}

func route(r *http.Request) string {
	switch {
	case r.URL.Path == "/ojs/fetch":
		return "fetch"
	case strings.HasSuffix(r.URL.Path, "/ack"):
		return "ack"
	case strings.HasSuffix(r.URL.Path, "/jobs"):
		return "push"
	}
	return ""
}

func (t *jobsTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := t.clk.now()
		h.ServeHTTP(w, r)
		b := t.clk.now()
		key, err := strconv.Atoi(r.Header.Get(keyHeader))
		if rt := route(r); rt != "" && err == nil {
			t.mu.Lock()
			t.handlers[handlerKey{rt, key}] = [2]int64{a, b}
			t.mu.Unlock()
		}
	})
}

// layer computes the jobs and http metrics by joining, per job, the
// client's request intervals, the handler intervals and the hook
// instants.
func (t *jobsTracer) layer(m metricSet, r *jobsRun) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var pushJobs, ackJobs, wait, rttPush, rttAck, hPush, hAck, transport, encode []float64
	for i, id := range r.accepted {
		ev := t.events[id]
		if id == "" || ev == nil {
			continue
		}
		c := r.pushC[i]
		rttPush = append(rttPush, float64(c[1]-c[0]))
		if h, ok := t.handlers[handlerKey{"push", i}]; ok {
			hPush = append(hPush, float64(h[1]-h[0]))
			transport = append(transport, float64((c[1]-c[0])-(h[1]-h[0])))
			pushJobs = append(pushJobs, float64(ev.pushed-h[0]))
			encode = append(encode, float64(h[1]-ev.pushed))
		}
		if ev.fetched != 0 {
			wait = append(wait, float64(ev.fetched-ev.pushed))
		}
		if c := r.ackC[i]; c[1] != 0 {
			rttAck = append(rttAck, float64(c[1]-c[0]))
		}
		if h, ok := t.handlers[handlerKey{"ack", i}]; ok {
			hAck = append(hAck, float64(h[1]-h[0]))
			ackJobs = append(ackJobs, float64(ev.acked-h[0]))
		}
	}
	var rttFetch, hFetch []float64
	for k, c := range r.fetchC {
		rttFetch = append(rttFetch, float64(c[1]-c[0]))
		if h, ok := t.handlers[handlerKey{"fetch", k}]; ok {
			hFetch = append(hFetch, float64(h[1]-h[0]))
		}
	}
	m.put("jobs.push_us", usec(quantile(pushJobs, 0.5)), "us")
	m.put("jobs.ack_us", usec(quantile(ackJobs, 0.5)), "us")
	m.put("jobs.queue_wait_us_p50", usec(quantile(wait, 0.50)), "us")
	m.put("jobs.queue_wait_us_p99", usec(quantile(wait, 0.99)), "us")
	m.put("http.rtt_us.push", usec(quantile(rttPush, 0.5)), "us")
	m.put("http.rtt_us.fetch", usec(quantile(rttFetch, 0.5)), "us")
	m.put("http.rtt_us.ack", usec(quantile(rttAck, 0.5)), "us")
	m.put("http.handler_us.push", usec(quantile(hPush, 0.5)), "us")
	m.put("http.handler_us.fetch", usec(quantile(hFetch, 0.5)), "us")
	m.put("http.handler_us.ack", usec(quantile(hAck, 0.5)), "us")
	m.put("http.transport_us.push", usec(quantile(transport, 0.5)), "us")
	m.put("http.encode_us.push", usec(quantile(encode, 0.5)), "us")
}

// spans builds one trace per kept job: the job from its due time to its
// ACK response, with the HTTP requests, their handlers, the jobs-layer
// work inside them and the wait in the ready queue.
func (t *jobsTracer) spans(pass string, r *jobsRun, windowStart int64, sched *jobsSchedule) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	fetchOf := make(map[int]int, len(r.fetchJob))
	for k, seq := range r.fetchJob {
		if seq >= 0 {
			fetchOf[seq] = k
		}
	}
	log := &spanLog{pass: pass}
	for i := 0; i < len(r.accepted); i += jobsTraceEvery {
		id := r.accepted[i]
		ev := t.events[id]
		if id == "" || ev == nil {
			continue
		}
		trace := uint64(i)
		root := log.add(trace, 0, "job", windowStart+sched.due[i], r.ackC[i][1])
		push := log.add(trace, root, "http.push", r.pushC[i][0], r.pushC[i][1])
		if h, ok := t.handlers[handlerKey{"push", i}]; ok {
			hs := log.add(trace, push, "http.push.handler", h[0], h[1])
			log.add(trace, hs, "jobs.push", h[0], ev.pushed)
			log.add(trace, hs, "http.push.encode", ev.pushed, h[1])
		}
		log.add(trace, root, "jobs.queue_wait", ev.pushed, ev.fetched)
		if k, ok := fetchOf[i]; ok {
			f := log.add(trace, root, "http.fetch", r.fetchC[k][0], r.fetchC[k][1])
			if h, ok := t.handlers[handlerKey{"fetch", k}]; ok {
				log.add(trace, f, "http.fetch.handler", h[0], h[1])
			}
		}
		ack := log.add(trace, root, "http.ack", r.ackC[i][0], r.ackC[i][1])
		if h, ok := t.handlers[handlerKey{"ack", i}]; ok {
			hs := log.add(trace, ack, "http.ack.handler", h[0], h[1])
			log.add(trace, hs, "jobs.ack", h[0], ev.acked)
		}
	}
	return log.spans
}

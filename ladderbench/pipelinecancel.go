package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"nbqueue"
	"nbqueue/internal/pipeline"
)

// The pipeline-cancel workload is an open loop: one generator submits a
// seeded Poisson schedule into the ingest → work → egress pipeline and
// cancels a seeded 1 in 64 of its recent items.
const (
	pipeRate        = 20000 // offered items/s
	pipeLanes       = 2     // priority lanes per stage
	pipeLaneCap     = 512   // capacity of each lane queue and fabric shard
	pipeShards      = 2     // shards of each work-stage fabric lane
	pipeCancelOneIn = 64
	pipeCancelReach = 16 // a cancel picks one of the last 16 items
	pipeDeadline    = time.Second
	pipeSetups      = 25
	pipeDrain       = 10 * time.Second
	// pipeTraceEvery is the share of items the traced pass stamps at
	// every boundary; pipeFabricEvery the share of fabric dequeue calls
	// it times. Timing every call would cost more than the call.
	pipeTraceEvery  = 16
	pipeFabricEvery = 8
	// pipeFirstID is the pipeline ID of the first scheduled item: ID 1
	// is the warm-up item that times set-up.
	pipeFirstID = 2
)

var stageNames = [...]string{"ingest", "work", "egress"}

// pipeSchedule is the generated input of one pass.
type pipeSchedule struct {
	due    []int64 // ns after the window starts
	prio   []uint8
	cancel []int32 // item to cancel right after submitting item i, or -1
	salt   uint64  // seeds the synthetic service
}

func newPipeSchedule(seed uint64, window time.Duration) *pipeSchedule {
	rng := rand.New(rand.NewPCG(seed, 0x919e))
	s := &pipeSchedule{salt: rng.Uint64()}
	mean := 1e9 / float64(pipeRate)
	for t := rng.ExpFloat64() * mean; t < float64(window); t += rng.ExpFloat64() * mean {
		i := len(s.due)
		s.due = append(s.due, int64(t))
		s.prio = append(s.prio, uint8(rng.IntN(pipeLanes)))
		c := int32(-1)
		if rng.IntN(pipeCancelOneIn) == 0 {
			if back := rng.IntN(pipeCancelReach); back <= i {
				c = int32(i - back)
			}
		}
		s.cancel = append(s.cancel, c)
	}
	return s
}

// synth is the stage service: a seeded number (32 to 95) of mixing
// rounds, fixed per item and stage.
func synth(salt, id uint64, stage int) uint64 {
	x := mix(salt ^ id<<2 ^ uint64(stage))
	for n := 32 + x%64; n > 0; n-- {
		x = mix(x)
	}
	return x
}

// pipeSystem is one pipeline under test plus the benchmark's view of
// its outputs.
type pipeSystem struct {
	sched *pipeSchedule
	tr    *pipeTracer // nil when untraced
	p     *pipeline.Pipeline
	prod  *pipeline.Producer
	warm  chan struct{}
	sinks [len(stageNames)]uint64

	// start is when the schedule began; emitAt[i] is when scheduled
	// item i reached OnEmit, ns after start, or -1. Only the egress
	// worker writes emitAt, and it is read after Stop.
	start     time.Time
	emitAt    []int64
	cancelled []bool // Cancel returned true for item i
	// The CPU and runtime counters when the measured window opened, at
	// the first item due after the warm-up.
	cpu0 time.Duration
	rt0  runtimeSample
}

func (s *pipeSystem) newLane(stage int) (pipeline.Lane, error) {
	var ln pipeline.Lane
	if stage == 1 {
		f, err := nbqueue.NewFabric[*pipeline.Item](nbqueue.WithShards(pipeShards),
			nbqueue.WithShardOptions(nbqueue.WithCapacity(pipeLaneCap)))
		if err != nil {
			return nil, err
		}
		ln = pipeline.FabricLane(f)
	} else {
		q, err := nbqueue.New[*pipeline.Item](nbqueue.WithCapacity(pipeLaneCap))
		if err != nil {
			return nil, err
		}
		ln = pipeline.QueueLane(q)
	}
	if s.tr != nil {
		ln = &tracedLane{Lane: ln, t: s.tr, stage: stage}
	}
	return ln, nil
}

func (s *pipeSystem) onEmit(it *pipeline.Item) {
	if it.ID < pipeFirstID {
		s.warm <- struct{}{}
		return
	}
	if i := it.ID - pipeFirstID; i < uint64(len(s.emitAt)) {
		s.emitAt[i] = int64(time.Since(s.start))
	}
	if s.tr != nil {
		if ps := s.tr.stamps(it); ps != nil {
			ps.emit = s.tr.clk.now()
		}
	}
}

// build constructs and starts the pipeline and waits for the warm-up
// item to be emitted: the set-up that setup_s times.
func (s *pipeSystem) build() error {
	cfg := pipeline.Config{DeadlineBudget: pipeDeadline, OnEmit: s.onEmit}
	for st := range stageNames {
		cfg.Stages = append(cfg.Stages, pipeline.StageSpec{
			Name:    stageNames[st],
			Workers: 1,
			Lanes:   pipeLanes,
			NewLane: func(int) (pipeline.Lane, error) { return s.newLane(st) },
			Service: func(it *pipeline.Item) {
				s.sinks[st] ^= synth(s.sched.salt, it.ID, st)
				if s.tr != nil {
					if ps := s.tr.stamps(it); ps != nil {
						ps.svcB[st] = s.tr.clk.now()
					}
				}
			},
		})
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		return fmt.Errorf("building pipeline: %w", err)
	}
	if s.tr != nil {
		p.SetHook(func(stage, _ int, it *pipeline.Item) {
			if ps := s.tr.stamps(it); ps != nil {
				ps.svcA[stage] = s.tr.clk.now()
			}
		})
	}
	p.Start()
	s.p, s.prod = p, p.Producer()
	if _, err := s.prod.Submit(0); err != nil {
		s.teardown()
		return fmt.Errorf("submitting the warm-up item: %w", err)
	}
	select {
	case <-s.warm:
		return nil
	case <-time.After(pipeDrain):
		s.teardown()
		return errors.New("the warm-up item was not emitted within 10s")
	}
}

// drain closes the producer and waits until every item has settled.
func (s *pipeSystem) drain() bool {
	s.prod.Close()
	return s.p.Drain(pipeDrain)
}

func (s *pipeSystem) teardown() {
	s.drain()
	s.p.Stop()
}

// generate submits the schedule open-loop: everything that is due goes
// out at once, then the generator sleeps until the next due time. Sleep
// overshoots by up to a millisecond when the runtime is idle, so the
// lateness of every measured submission is recorded, in ns.
func (s *pipeSystem) generate() (late []float64, err error) {
	sc := s.sched
	late = make([]float64, 0, len(sc.due))
	measured := false
	var recent [pipeCancelReach]*pipeline.Item
	s.start = time.Now()
	for i := 0; i < len(sc.due); {
		now := int64(time.Since(s.start))
		if d := sc.due[i] - now; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		for ; i < len(sc.due) && sc.due[i] <= now; i++ {
			it, err := s.prod.Submit(int(sc.prio[i]))
			if errors.Is(err, pipeline.ErrStopped) {
				return nil, fmt.Errorf("submitting item %d: %w", i, err)
			}
			// Any other error is a shed the ledger already counts.
			if it.ID != pipeFirstID+uint64(i) {
				return nil, fmt.Errorf("item %d got pipeline ID %d, want %d", i, it.ID, pipeFirstID+i)
			}
			if sc.due[i] >= int64(warmup) {
				if !measured {
					s.cpu0, s.rt0, measured = cpuTime(), sampleRuntime(), true
				}
				late = append(late, float64(now-sc.due[i]))
			}
			recent[i%pipeCancelReach] = it
			if c := sc.cancel[i]; c >= 0 && s.p.Cancel(recent[c%pipeCancelReach]) {
				s.cancelled[c] = true
			}
			now = int64(time.Since(s.start))
		}
	}
	return late, nil
}

func runPipelineCancel(p *pass) (*outcome, error) {
	sched := newPipeSchedule(p.seed, warmup+p.window)
	n := len(sched.due)
	newTracer := func(items int) *pipeTracer {
		if !p.traced {
			return nil
		}
		return &pipeTracer{clk: newClock(), items: make([]pipeStamps, items)}
	}

	p.wd.enter("setup")
	var setups []float64
	var s *pipeSystem
	for i := 0; i < pipeSetups; i++ {
		last := i == pipeSetups-1
		s = &pipeSystem{sched: sched, tr: newTracer(0), warm: make(chan struct{}, 1)}
		if last {
			s.tr = newTracer((n + pipeTraceEvery - 1) / pipeTraceEvery)
			s.emitAt = make([]int64, n)
			for j := range s.emitAt {
				s.emitAt[j] = -1
			}
			s.cancelled = make([]bool, n)
		}
		t0 := startSetup()
		if err := s.build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !last {
			s.teardown()
		}
	}

	p.wd.enter("measure")
	late, err := s.generate()
	if err != nil {
		s.teardown()
		return nil, err
	}
	p.wd.enter("drain")
	drained := s.drain()
	cpu, rt1 := cpuTime()-s.cpu0, sampleRuntime()
	windowEnd := time.Since(s.start)
	heap := heapAfterGC()
	p.wd.enter("teardown")
	s.p.Stop()
	if !drained {
		return nil, fmt.Errorf("the pipeline did not settle every item within %v of the window's end", pipeDrain)
	}

	audit := s.p.Ledger().Audit()
	if audit.ConservationViolations != 0 || audit.FencingViolations != 0 {
		return nil, checkFailed("ledger audit: %d conservation and %d fencing violations (fenced and emitted: %v)",
			audit.ConservationViolations, audit.FencingViolations, audit.ViolatingIDs)
	}
	var lat []float64
	var lastEmit int64
	for i, at := range s.emitAt {
		if at < 0 {
			continue
		}
		if s.cancelled[i] {
			return nil, checkFailed("item %d reached OnEmit although its Cancel returned true", i)
		}
		if sched.due[i] < int64(warmup) {
			continue
		}
		lat = append(lat, float64(at-sched.due[i]))
		lastEmit = max(lastEmit, at)
	}
	emitted := float64(len(lat))
	if emitted == 0 {
		return nil, checkFailed("no scheduled item was emitted")
	}

	o := &outcome{e2e: metricSet{}, attempted: uint64(n) - audit.Fenced, failed: audit.Shed + audit.DeadLettered}
	o.e2e.put("throughput_per_s", emitted/(float64(lastEmit-int64(warmup))/1e9), "1/s")
	o.e2e.put("latency_p50_us", usec(quantile(lat, 0.50)), "us")
	o.e2e.put("cpu_us_per_op", usec(float64(cpu))/emitted, "us")
	o.e2e.put("heap_after_gc_mb", float64(heap)/(1<<20), "MB")
	o.e2e.put("setup_s", median(setups), "s")
	if !p.traced {
		return o, nil
	}

	t := s.tr
	o.layer = metricSet{}
	window := float64(windowEnd)
	for st, name := range stageNames {
		var waits, hops []float64
		for k := range t.items {
			ps := &t.items[k]
			if ps.enqB[st] != 0 && ps.deq[st] != 0 {
				waits = append(waits, float64(ps.deq[st]-ps.enqB[st]))
			}
			next := ps.emit
			if st+1 < len(stageNames) {
				next = ps.enqB[st+1]
			}
			if ps.deq[st] != 0 && next != 0 {
				hops = append(hops, float64(next-ps.deq[st]))
			}
		}
		d := &t.deq[st]
		pre := "pipeline." + name + "."
		o.layer.put(pre+"wait_us_p50", usec(quantile(waits, 0.50)), "us")
		o.layer.put(pre+"wait_us_p99", usec(quantile(waits, 0.99)), "us")
		o.layer.put(pre+"hop_us", usec(quantile(hops, 0.50)), "us")
		o.layer.put(pre+"empty_poll_ratio", ratio(float64(d.empty), float64(d.calls)), "ratio")
		o.layer.put(pre+"busy_share", ratio(float64(d.busy), window), "ratio")
	}
	var emits []float64
	for k := range t.items {
		if ps := &t.items[k]; ps.emit != 0 && ps.svcB[2] != 0 {
			emits = append(emits, float64(ps.emit-ps.svcB[2]))
		}
	}
	o.layer.put("pipeline.egress.emit_us", usec(quantile(emits, 0.5)), "us")
	o.layer.put("pipeline.fenced", float64(audit.Fenced), "count")
	o.layer.put("pipeline.fence_drops", float64(audit.FenceDrops), "count")
	o.layer.put("pipeline.cancel_late", float64(audit.CancelLate), "count")
	o.layer.put("pipeline.shed", float64(audit.Shed), "count")
	o.layer.put("fabric.enqueue_ns", quantile(t.enq[1].ns, 0.5), "ns")
	o.layer.put("fabric.dequeue_ns", quantile(t.deq[1].ns, 0.5), "ns")
	o.layer.put("fabric.empty_poll_ratio", ratio(float64(t.deq[1].empty), float64(t.deq[1].calls)), "ratio")
	o.layer.put("fabric.refused", float64(t.enq[1].refused), "count")
	putRuntime(o.layer, s.rt0, rt1, emitted)
	o.layer.put("runtime.gen_late_us_p50", usec(quantile(late, 0.50)), "us")
	o.layer.put("runtime.gen_late_us_p99", usec(quantile(late, 0.99)), "us")
	o.layer.put(p.workload+".latency_p90_us", usec(quantile(lat, 0.90)), "us")
	o.layer.put(p.workload+".latency_p99_us", usec(quantile(lat, 0.99)), "us")
	o.spans = t.spans(p.workload, sched, int64(s.start.Sub(t.clk.base)))
	return o, nil
}

// pipeTracer holds what the traced pass records at the pipeline's
// boundaries: its own lane wrappers (returned through NewLane), the
// service function, the SetHook hook and OnEmit. Each field has one
// writer — a stage has one worker — and is read after Stop.
type pipeTracer struct {
	clk   clock
	items []pipeStamps // every pipeTraceEvery-th scheduled item
	enq   [len(stageNames)]enqSide
	deq   [len(stageNames)]deqSide
}

// pipeStamps are one item's boundary times, per stage, on the pass
// clock; 0 means the item never crossed that boundary.
type pipeStamps struct {
	enqA, enqB, deq, svcA, svcB [len(stageNames)]int64
	emit                        int64
}

type enqSide struct {
	calls, refused uint64
	ns             []float64 // every enqueue call into the fabric lanes
}

type deqSide struct {
	calls, empty uint64
	busy         int64 // from each successful dequeue to the worker's next poll
	busySince    int64
	ns           []float64 // sampled successful fabric dequeue calls
}

func (t *pipeTracer) stamps(it *pipeline.Item) *pipeStamps {
	if it.ID < pipeFirstID {
		return nil
	}
	i := it.ID - pipeFirstID
	if i%pipeTraceEvery != 0 || i/pipeTraceEvery >= uint64(len(t.items)) {
		return nil
	}
	return &t.items[i/pipeTraceEvery]
}

func (t *pipeTracer) spans(pass string, sched *pipeSchedule, windowStart int64) []span {
	log := &spanLog{pass: pass}
	for k := range t.items {
		ps := &t.items[k]
		i := k * pipeTraceEvery
		end := ps.emit
		for st := range stageNames {
			end = max(end, ps.enqB[st], ps.deq[st], ps.svcB[st])
		}
		trace := uint64(i + pipeFirstID)
		root := log.add(trace, 0, "pipeline.item", windowStart+sched.due[i], end)
		for st, name := range stageNames {
			log.add(trace, root, "pipeline."+name+".enqueue", ps.enqA[st], ps.enqB[st])
			log.add(trace, root, "pipeline."+name+".wait", ps.enqB[st], ps.deq[st])
			log.add(trace, root, "pipeline."+name+".service", ps.svcA[st], ps.svcB[st])
		}
		log.add(trace, root, "pipeline.egress.emit", ps.svcB[2], ps.emit)
	}
	return log.spans
}

// tracedLane wraps a stage's lane to time and count the calls the
// pipeline makes into it.
type tracedLane struct {
	pipeline.Lane
	t     *pipeTracer
	stage int
}

func (l *tracedLane) Attach() pipeline.LaneSession {
	return &tracedSession{LaneSession: l.Lane.Attach(), l: l}
}

type tracedSession struct {
	pipeline.LaneSession
	l *tracedLane
}

func (s *tracedSession) Enqueue(it *pipeline.Item) error {
	t, st := s.l.t, s.l.stage
	e := &t.enq[st]
	a := t.clk.now()
	err := s.LaneSession.Enqueue(it)
	b := t.clk.now()
	e.calls++
	if err != nil {
		e.refused++
		return err
	}
	if st == 1 {
		e.ns = append(e.ns, float64(b-a))
	}
	if ps := t.stamps(it); ps != nil {
		ps.enqA[st], ps.enqB[st] = a, b
	}
	return nil
}

func (s *tracedSession) Dequeue() (*pipeline.Item, bool) {
	t, st := s.l.t, s.l.stage
	d := &t.deq[st]
	d.calls++
	if d.busySince != 0 {
		d.busy += t.clk.now() - d.busySince
		d.busySince = 0
	}
	timed := st == 1 && d.calls%pipeFabricEvery == 0
	var a int64
	if timed {
		a = t.clk.now()
	}
	it, ok := s.LaneSession.Dequeue()
	if !ok {
		d.empty++
		return it, false
	}
	b := t.clk.now()
	d.busySince = b
	if timed {
		d.ns = append(d.ns, float64(b-a))
	}
	if ps := t.stamps(it); ps != nil {
		ps.deq[st] = b
	}
	return it, true
}

package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbqueue"
)

// The queue-pairs workload is the paper's §7 loop, closed: each of two
// goroutines enqueues a burst of five values and then dequeues five, on
// one queue built with the package defaults except the algorithm.
const (
	// pairsAlgorithm is Algorithm 1, not the package default (Algorithm
	// 2, AlgorithmCAS): with two goroutines contending on two CPUs,
	// Algorithm 2 delivers a value twice or out of order in some runs,
	// both behind Queue[T] and as a raw ring, so this loop cannot pass
	// its output check on it. Algorithm 2 is priced by one goroutine
	// alone on the raw ring (ring.pair_ns.evq-cas.solo), where no
	// other thread can race it.
	pairsAlgorithm  = nbqueue.AlgorithmLLSC
	pairsCapacity   = 1024
	pairsGoroutines = 2
	pairsBurst      = 5
	// pairsPerBlock is the number of pairs timed as one block: a single
	// pair lasts about as long as two clock reads, so pairs are timed in
	// blocks, never one by one.
	pairsPerBlock = 1000
	// pairsRound is how long each of the fresh queues that share one
	// measured window runs, one after another. A queue keeps the pair
	// time it started with (within 3% over 10 s), but fresh queues in
	// one process differ by up to 30%, so a window pools many instead
	// of drawing one.
	pairsRound = time.Second
	// roundWarmup is the unmeasured start of every round but the first,
	// which warms up for the pass's full warmup.
	roundWarmup = 100 * time.Millisecond
	pairsSetups = 101
	// pairsHistNs is the range of the per-pair time histogram, one
	// bucket per ns. A histogram of fixed size keeps the benchmark's own
	// heap the same however fast the queue runs.
	pairsHistNs = 1 << 14
	// pairsKeyMask keeps the seeded key inside the raw word contract
	// (see encodePair).
	pairsKeyMask = 1<<38 - 1
)

// pairSession is the part of a session the pair loop drives; both
// *nbqueue.Session[uint64] and nbqueue.RawSession have it.
type pairSession interface {
	Enqueue(v uint64) error
	Dequeue() (uint64, bool)
	Detach()
}

// encodePair maps producer p's seq-th value to a word that is even,
// nonzero and below 2^40, so the same values are legal on the raw ring
// and on Queue[uint64]. The seeded key scrambles the payload bits.
func encodePair(key, p, seq uint64) uint64 { return ((((seq << 1) | p) ^ key) + 1) << 1 }

func decodePair(key, v uint64) (p, seq uint64) {
	x := ((v >> 1) - 1) ^ key
	return x & 1, x >> 1
}

// mix is the splitmix64 finalizer, used as the element hash of the
// multiset check.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairChecker is one consumer's view of what it dequeued. Each
// producer's values must arrive in increasing order (a linearizable
// FIFO never reorders one producer's values for one consumer), and the
// count and hash sum per producer let verifyPairs prove that every
// value was dequeued exactly once without keeping the values.
type pairChecker struct {
	key   uint64
	next  [pairsGoroutines]uint64
	count [pairsGoroutines]uint64
	sum   [pairsGoroutines]uint64
	bad   string
}

func (c *pairChecker) see(v uint64) {
	p, seq := decodePair(c.key, v)
	if seq < c.next[p] && c.bad == "" {
		c.bad = fmt.Sprintf("producer %d value %d dequeued after value %d", p, seq, c.next[p]-1)
	}
	c.next[p] = seq + 1
	c.count[p]++
	c.sum[p] += mix(seq)
}

// verifyPairs checks that the consumers together saw exactly the values
// 0..produced[p]-1 of every producer p, each once.
func verifyPairs(checkers []*pairChecker, produced []uint64) error {
	for _, c := range checkers {
		if c.bad != "" {
			return checkFailed("order: %s", c.bad)
		}
	}
	for p, n := range produced {
		var count, sum, want uint64
		for _, c := range checkers {
			count += c.count[p]
			sum += c.sum[p]
		}
		for s := uint64(0); s < n; s++ {
			want += mix(s)
		}
		if count != n {
			return checkFailed("producer %d enqueued %d values but %d were dequeued", p, n, count)
		}
		if sum != want {
			return checkFailed("producer %d: the %d dequeued values are not its %d values each once", p, count, n)
		}
	}
	return nil
}

// pairWorker is one goroutine of the loop: producer and consumer both.
type pairWorker struct {
	id          uint64
	s           pairSession
	seq         uint64
	chk         pairChecker
	hist        []uint32 // blocks by per-pair time in ns, pairsHistNs long
	blocks      int
	traced      bool
	starts      []int64 // block start on the pass clock, traced only
	ends        []int64 // block end
	fullRetries uint64
	emptyDeqs   uint64
	err         error
}

func (w *pairWorker) run(measuring, stop *atomic.Bool, clk clock) {
	key := w.chk.key
	for ; !stop.Load(); runtime.Gosched() {
		// The yield between blocks wakes an idle P, so if the scheduler
		// has queued both workers on one P they part again within one
		// block instead of taking turns for a whole run.
		counted := measuring.Load()
		t0 := clk.now()
		for r := 0; r < pairsPerBlock/pairsBurst; r++ {
			for i := 0; i < pairsBurst; i++ {
				v := encodePair(key, w.id, w.seq)
				for {
					err := w.s.Enqueue(v)
					if err == nil {
						break
					}
					if !errors.Is(err, nbqueue.ErrFull) {
						w.err = fmt.Errorf("enqueue: %w", err)
						return
					}
					w.fullRetries++
				}
				w.seq++
			}
			for i := 0; i < pairsBurst; i++ {
				v, ok := w.s.Dequeue()
				for !ok {
					w.emptyDeqs++
					v, ok = w.s.Dequeue()
				}
				w.chk.see(v)
			}
		}
		t1 := clk.now()
		if !counted {
			continue
		}
		w.hist[min((t1-t0)/pairsPerBlock, pairsHistNs-1)]++
		w.blocks++
		if w.traced {
			w.starts = append(w.starts, t0)
			w.ends = append(w.ends, t1)
		}
	}
}

// pairRun is one measured window of the loop.
type pairRun struct {
	workers  []*pairWorker
	hist     []uint32 // the workers' histograms, summed
	elapsed  time.Duration
	cpu      time.Duration
	heap     uint64
	rt0, rt1 runtimeSample
}

// startLine holds the workers until they are seen running on two CPUs
// at once. Released as soon as both are runnable, the two threads can
// share one CPU for up to a second, and the loop then measures
// turn-taking instead of contention. Worker 0 watches, since an observer
// needs a CPU of its own, and opens the line.
type startLine struct {
	cpu   [pairsGoroutines]atomic.Int64
	beats [pairsGoroutines]struct {
		atomic.Uint64
		_ [56]byte // own cache line
	}
	open     atomic.Bool
	opened   chan struct{}
	within   time.Duration // how long worker 0 waits for the workers to part
	parallel bool          // written by worker 0 before it closes opened
}

const (
	// startApart is how long the workers must run on different CPUs,
	// both making progress, before the window starts.
	startApart  = 5 * time.Millisecond
	startWithin = 3 * time.Second
	// roundStartWithin bounds the wait of every round but the first, so
	// that a loaded machine cannot stretch a pass of many rounds past
	// its watchdog.
	roundStartWithin = 500 * time.Millisecond
)

func (l *startLine) wait(g int) {
	deadline := time.Now().Add(l.within)
	var since, last time.Time
	var before uint64
	for {
		l.cpu[g].Store(int64(cpuOf()))
		l.beats[g].Add(1)
		if g != 0 {
			if l.open.Load() {
				return
			}
			continue
		}
		// Sample the other worker every 50 µs: it must have made
		// progress since the last sample and be on another CPU.
		now := time.Now()
		if now.Sub(last) < 50*time.Microsecond {
			continue
		}
		last = now
		beat := l.beats[1].Load()
		c0, c1 := l.cpu[0].Load(), l.cpu[1].Load()
		apart := beat != before && (c0 != c1 || c0 < 0)
		before = beat
		switch {
		case !apart:
			since = time.Time{}
		case since.IsZero():
			since = now
		}
		l.parallel = apart && now.Sub(since) >= startApart
		if l.parallel || now.After(deadline) {
			l.open.Store(true)
			close(l.opened)
			return
		}
	}
}

// measurePairs runs the loop with n workers on sessions from attach,
// unmeasured for a warm-up and measured for window, checks the outputs,
// and measures the heap before detaching. The first run of a pass warms
// up for longer (see roundWarmup). A single worker starts at once: there
// is no second one to wait for.
func measurePairs(attach func() pairSession, n int, key uint64, first bool, window time.Duration, clk clock, traced bool) (*pairRun, error) {
	var measuring, stop atomic.Bool
	warm, within := roundWarmup, roundStartWithin
	if first {
		warm, within = warmup, startWithin
	}
	line := startLine{opened: make(chan struct{}), within: within}
	var done sync.WaitGroup
	r := &pairRun{}
	for g := 0; g < n; g++ {
		w := &pairWorker{id: uint64(g), chk: pairChecker{key: key}, hist: make([]uint32, pairsHistNs), traced: traced}
		r.workers = append(r.workers, w)
		done.Add(1)
		go func() {
			defer done.Done()
			w.s = attach()
			if n > 1 {
				line.wait(g)
			}
			w.run(&measuring, &stop, clk)
		}()
	}
	if n > 1 {
		<-line.opened
	}
	if n > 1 && !line.parallel {
		fmt.Printf("ladderbench: queue-pairs workers were not seen running in parallel within %v; measuring anyway\n", within)
	}
	time.Sleep(warm)
	cpu0, t0 := cpuTime(), time.Now()
	r.rt0 = sampleRuntime()
	measuring.Store(true)
	time.Sleep(window)
	stop.Store(true)
	done.Wait()
	r.elapsed, r.cpu, r.rt1 = time.Since(t0), cpuTime()-cpu0, sampleRuntime()
	r.heap = heapAfterGC()

	s := attach()
	_, left := s.Dequeue()
	s.Detach()
	r.hist = make([]uint32, pairsHistNs)
	for _, w := range r.workers {
		w.s.Detach()
		// A pooled run keeps the workers' counts, not their queue or
		// histogram.
		w.s = nil
		for ns, n := range w.hist {
			r.hist[ns] += n
		}
		w.hist = nil
	}
	var checkers []*pairChecker
	var produced []uint64
	for _, w := range r.workers {
		if w.err != nil {
			return nil, w.err
		}
		checkers = append(checkers, &w.chk)
		produced = append(produced, w.seq)
	}
	if left {
		return nil, checkFailed("the queue still held a value after every enqueued value was dequeued")
	}
	return r, verifyPairs(checkers, produced)
}

// measureRounds runs the loop on rounds fresh queues from build, one
// after another, each measured for an equal share of window (see
// pairsRounds), and pools what they measured. The heap is the last
// round's.
func measureRounds(build func() (func() pairSession, error), n, rounds int, key uint64, window time.Duration, clk clock, traced bool) (*pairRun, error) {
	all := &pairRun{hist: make([]uint32, pairsHistNs)}
	for i := 0; i < rounds; i++ {
		attach, err := build()
		if err != nil {
			return nil, err
		}
		r, err := measurePairs(attach, n, key, i == 0, window/time.Duration(rounds), clk, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d of %d: %w", i+1, rounds, err)
		}
		all.workers = append(all.workers, r.workers...)
		for ns, n := range r.hist {
			all.hist[ns] += n
		}
		all.elapsed += r.elapsed
		all.cpu += r.cpu
		all.heap = r.heap
		all.rt1.mallocs += r.rt1.mallocs - r.rt0.mallocs
		all.rt1.gcCPU += r.rt1.gcCPU - r.rt0.gcCPU
		all.rt1.total += r.rt1.total - r.rt0.total
	}
	return all, nil
}

func (r *pairRun) pairs() float64 {
	n := 0
	for _, w := range r.workers {
		n += w.blocks
	}
	return float64(n * pairsPerBlock)
}

// pairNs is the q-quantile of the per-pair time over every block, in ns.
func (r *pairRun) pairNs(q float64) float64 {
	var total uint64
	for _, w := range r.workers {
		total += uint64(w.blocks)
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for ns, n := range r.hist {
		seen += uint64(n)
		if seen >= rank && seen > 0 {
			return float64(ns)
		}
	}
	return pairsHistNs
}

func (r *pairRun) spans(log *spanLog, name string) {
	for g, w := range r.workers {
		for i := range w.starts {
			log.add(uint64(g)<<32|uint64(i), 0, name, w.starts[i], w.ends[i])
		}
	}
}

func runQueuePairs(p *pass) (*outcome, error) {
	if pairsCapacity < pairsGoroutines*pairsBurst {
		return nil, fmt.Errorf("capacity %d is below goroutines × burst = %d", pairsCapacity, pairsGoroutines*pairsBurst)
	}
	key := rand.New(rand.NewPCG(p.seed, 0x51ed)).Uint64() & pairsKeyMask
	clk := newClock()

	p.wd.enter("setup")
	var setups []float64
	for i := 0; i < pairsSetups; i++ {
		t0 := startSetup()
		q, err := nbqueue.New[uint64](nbqueue.WithAlgorithm(pairsAlgorithm), nbqueue.WithCapacity(pairsCapacity))
		if err != nil {
			return nil, fmt.Errorf("building queue: %w", err)
		}
		a, b := q.Attach(), q.Attach()
		v := encodePair(key, 0, 0)
		err = a.Enqueue(v)
		got, ok := b.Dequeue()
		setups = append(setups, time.Since(t0).Seconds())
		a.Detach()
		b.Detach()
		if err != nil {
			return nil, fmt.Errorf("first enqueue: %w", err)
		}
		if !ok || got != v {
			return nil, checkFailed("first dequeue returned (%d, %v), want (%d, true)", got, ok, v)
		}
	}
	queue := func(opts ...nbqueue.Option) func() (func() pairSession, error) {
		return func() (func() pairSession, error) {
			q, err := nbqueue.New[uint64](append(opts, nbqueue.WithAlgorithm(pairsAlgorithm), nbqueue.WithCapacity(pairsCapacity))...)
			if err != nil {
				return nil, fmt.Errorf("building queue: %w", err)
			}
			return func() pairSession { return q.Attach() }, nil
		}
	}

	p.wd.enter("measure")
	rounds := max(1, int(p.window/pairsRound))
	r, err := measureRounds(queue(), pairsGoroutines, rounds, key, p.window, clk, p.traced)
	if err != nil {
		return nil, err
	}
	pairs := r.pairs()
	o := &outcome{e2e: metricSet{}, attempted: uint64(pairs)}
	o.e2e.put("throughput_per_s", pairs/r.elapsed.Seconds(), "1/s")
	o.e2e.put("latency_p50_us", usec(r.pairNs(0.50)), "us")
	o.e2e.put("cpu_us_per_op", usec(float64(r.cpu))/pairs, "us")
	o.e2e.put("heap_after_gc_mb", float64(r.heap)/(1<<20), "MB")
	o.e2e.put("setup_s", median(setups), "s")
	if !p.traced {
		return o, nil
	}

	// Traced: the ring passes price the word layer alone (NewRaw), the
	// metrics pass prices the counter tier, both with the same loop. The
	// two algorithms are compared by one worker each (see
	// pairsAlgorithm); the queue's own algorithm also runs contended, as
	// the queue pass does, so that the payload overhead is like for like.
	p.wd.enter("layers")
	micro := min(p.window/5, 2*time.Second)
	const layerRounds = 4
	log := &spanLog{pass: p.workload}
	r.spans(log, "queue.block")
	o.layer = metricSet{}
	ringPass := func(a nbqueue.Algorithm, n int, name string) (*pairRun, error) {
		ring := func() (func() pairSession, error) {
			rq, err := nbqueue.NewRaw(nbqueue.WithAlgorithm(a), nbqueue.WithCapacity(pairsCapacity))
			if err != nil {
				return nil, fmt.Errorf("building raw %s ring: %w", a, err)
			}
			return func() pairSession { return rq.Attach() }, nil
		}
		rr, err := measureRounds(ring, n, layerRounds, key, micro, clk, true)
		if err != nil {
			return nil, fmt.Errorf("raw %s ring, %d workers: %w", a, n, err)
		}
		o.layer.put(name, rr.pairNs(0.5), "ns")
		rr.spans(log, name+".block")
		return rr, nil
	}
	soloNs := map[nbqueue.Algorithm]float64{}
	for _, a := range []nbqueue.Algorithm{nbqueue.AlgorithmCAS, nbqueue.AlgorithmLLSC} {
		rr, err := ringPass(a, 1, "ring.pair_ns."+string(a)+".solo")
		if err != nil {
			return nil, err
		}
		soloNs[a] = rr.pairNs(0.5)
	}
	o.layer.put("ring.llsc_over_cas", ratio(soloNs[nbqueue.AlgorithmLLSC], soloNs[nbqueue.AlgorithmCAS]), "ratio")
	rr, err := ringPass(pairsAlgorithm, pairsGoroutines, "ring.pair_ns."+string(pairsAlgorithm))
	if err != nil {
		return nil, err
	}
	var retries, enqueues float64
	for _, w := range rr.workers {
		retries += float64(w.fullRetries)
		enqueues += float64(w.seq + w.fullRetries)
	}
	o.layer.put("ring.full_retry_ratio", ratio(retries, enqueues), "ratio")

	mr, err := measureRounds(queue(nbqueue.WithMetrics(nbqueue.NewMetrics())), pairsGoroutines, layerRounds, key, micro, clk, true)
	if err != nil {
		return nil, fmt.Errorf("metered queue: %w", err)
	}
	mr.spans(log, "queue.metrics_on.block")

	queueNs := r.pairNs(0.5)
	meteredNs := mr.pairNs(0.5)
	var empties, dequeues float64
	for _, w := range r.workers {
		empties += float64(w.emptyDeqs)
		dequeues += float64(w.seq + w.emptyDeqs)
	}
	o.layer.put("queue.pair_ns", queueNs, "ns")
	o.layer.put("queue.payload_overhead_ns", queueNs-rr.pairNs(0.5), "ns")
	o.layer.put("queue.pair_ns.metrics_on", meteredNs, "ns")
	o.layer.put("queue.metrics_overhead_ratio", ratio(meteredNs, queueNs), "ratio")
	o.layer.put("queue.allocs_per_pair", ratio(float64(r.rt1.mallocs-r.rt0.mallocs), pairs), "count")
	o.layer.put("queue.empty_dequeue_ratio", ratio(empties, dequeues), "ratio")
	putRuntime(o.layer, r.rt0, r.rt1, pairs)
	o.layer.put(p.workload+".latency_p90_us", usec(r.pairNs(0.90)), "us")
	o.layer.put(p.workload+".latency_p99_us", usec(r.pairNs(0.99)), "us")
	o.spans = log.spans
	return o, nil
}

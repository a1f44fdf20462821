package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/serve"
	"hydro/internal/shard"
	"hydro/internal/transducer"
)

// outcome is one request's measured result.
type outcome struct {
	q       req
	vaccOK  bool
	atNs    int64 // when it was meant to go out, since the timed phase began
	latNs   int64 // from the time it was meant to go out
	lateNs  int64 // admission time minus the time the request was meant to go out
	timing  serve.RequestTiming
	failed  bool
	replyOK error
}

// pass is one measured run of a workload: set-up, the timed phase, the
// output checks and the recovery drill.
type pass struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	workdir string

	setupS, compileS, preloadS float64
	setupReps                  []float64

	attempted, failed int
	elapsedS, cpuS    float64
	goodput           float64 // see endToEnd
	p50Ns, p90Ns      int64
	p99Ns             int64
	phaseP50Ns        [4]int64 // queue, flush, eval, respond
	injectNs          int64    // summed per batch: serve's inject phase
	respondNs         int64    // summed per batch: reply routing and respond
	lateMaxNs         int64
	heapMB            float64
	recover           recovery

	sm     serve.Metrics
	stats0 txStats
	stats1 txStats
	tr     *tracer
	n      *node

	durRecords0, durRecords1 uint64
	durLogBytes              int64
	snapshots, transitive    int
	restartRecords           int // durable: records the restart replayed
	vaccOK, vaccRefused      int
	vaccineCount             any
	shard                    shardStats
	checkErrs                []error
}

type txStats struct{ aborted, derived uint64 }

type shardStats struct {
	ticks             uint64
	netSent           uint64
	virtualUs         int64
	decrees, stale    uint64
	elections         uint64
	failoverVirtualUs int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (p *pass) fail(err error) {
	if err != nil {
		p.checkErrs = append(p.checkErrs, fmt.Errorf("%s seed %d: %w", p.w.name, p.seed, err))
	}
}

// Set-up repeats: a pass that times set-up builds the node at least
// minSetups times and until the set-ups' CPU time adds up to setupBudget
// (at most maxSetups), and reports the median of their CPU times; only
// the last node serves. setup_s is process CPU time, not wall time: the
// preload evaluates in parallel, and its wall time followed how much of
// the second vCPU the shared reference host gave. Over eight consecutive
// runs of covid-write-durable the median set-up took 0.79–1.09 s of wall
// time and 1.13–1.23 s of CPU time, and ten-run medians of the wall time
// moved 49–72% between two sets taken half an hour apart.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 5 * time.Second
)

// repeatTimed runs f at least lo times and until the seconds it reports
// add up to budget, at most hi times, and returns those seconds.
func repeatTimed(lo, hi int, budget time.Duration, f func(i int) (float64, error)) ([]float64, error) {
	var out []float64
	spent := 0.0
	for i := 0; i < hi && (i < lo || spent < budget.Seconds()); i++ {
		s, err := f(i)
		if err != nil {
			return out, err
		}
		out = append(out, s)
		spent += s
	}
	return out, nil
}

// run executes the pass; timeSetup selects the repeated, timed set-up.
func (p *pass) run(timeSetup bool) error {
	img, drillC, err := drillImage(p.seed, p.workdir)
	if err != nil {
		return fmt.Errorf("drill image: %w", err)
	}
	defer os.RemoveAll(img)
	runtime.GC()
	// The image holds the preload and the tail, whose removals and re-adds
	// cancel out: what an expectation with no requests observed predicts.
	exp0 := newExpectation(drillWorkload.people)
	if err := p.recover.drill(drillC, img, nil, func(rec map[string][]datalog.Tuple) error {
		return checkState(rec, drillWorkload.people, exp0)
	}); err != nil {
		p.fail(fmt.Errorf("recovery drill: %w", err))
	}

	var compileTimes, preloadTimes []float64
	var n *node
	lo, hi := minSetups, maxSetups
	if !timeSetup {
		lo, hi = 1, 1
	}
	setupTimes, err := repeatTimed(lo, hi, setupBudget, func(int) (float64, error) {
		if n != nil {
			n.discard()
			n = nil
			runtime.GC()
		}
		c0 := cpuSeconds()
		var err error
		if n, err = setup(p.w, p.seed, p.workdir); err != nil {
			return 0, err
		}
		s := cpuSeconds() - c0
		compileTimes = append(compileTimes, n.compileS)
		preloadTimes = append(preloadTimes, n.preloadS)
		return s, nil
	})
	if err != nil {
		return err
	}
	p.setupReps = setupTimes
	p.n = n
	defer n.discard()
	p.setupS, p.compileS, p.preloadS = median(setupTimes), median(compileTimes), median(preloadTimes)
	runtime.GC()

	if p.traced {
		p.tr = newTracer()
		n.tap.tr = p.tr
	}
	settleFailed := false
	srv := serve.New(n.rt, n.serveConfig(p.tr, &settleFailed))
	st := n.rt.Stats()
	p.stats0 = txStats{st.Aborted, st.Derived}
	if n.store != nil {
		p.durRecords0 = n.store.LastSeq()
	}
	var net0 uint64
	var virt0 int64
	var sub0 uint64
	if n.dep != nil {
		net0 = n.cl.Net.Stats().Sent
		virt0 = int64(n.cl.Net.Now())
		sub0 = n.dep.SubmittedTicks()
	}
	m0 := n.depMetrics()
	snaps0 := n.tap.snapshots

	exp := newExpectation(p.w.people)
	g := newGen(p.w, p.seed)
	cpu0 := cpuSeconds()
	start := time.Now()
	var killAt int64 = -1
	var wg sync.WaitGroup
	if n.dep != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.failover(srv, start, &killAt)
		}()
	}
	outs := p.openLoop(srv, g, start)
	wg.Wait()
	p.elapsedS = time.Since(start).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	// After Close: the last batch's fan-out settle runs after its replies.
	srv.Close()
	p.sm = srv.Metrics()
	n.tap.tr = nil

	var lat, at []int64
	var phase [4][]int64
	// Per batch: the inject phase (FlushNs, the same for every request of
	// the batch) and the reply routing and respond phase (the largest
	// RespondNs, its last request's), for the ledger.
	type batchTimes struct{ inject, respond int64 }
	batches := map[uint64]*batchTimes{}
	for i := range outs {
		o := &outs[i]
		p.attempted++
		if o.failed {
			p.failed++
			continue
		}
		if o.replyOK != nil {
			p.fail(o.replyOK)
		}
		exp.observe(o.q, o.vaccOK)
		lat = append(lat, o.latNs)
		at = append(at, o.atNs)
		t := o.timing
		for k, v := range []int64{t.QueueNs, t.FlushNs, t.EvalNs, t.RespondNs} {
			phase[k] = append(phase[k], v)
		}
		b := batches[t.Batch]
		if b == nil {
			b = &batchTimes{inject: t.FlushNs}
			batches[t.Batch] = b
		}
		b.respond = max(b.respond, t.RespondNs)
		p.lateMaxNs = max(p.lateMaxNs, o.lateNs)
	}
	outs = nil
	for _, b := range batches {
		p.injectNs += b.inject
		p.respondNs += b.respond
	}
	p.p50Ns, p.p90Ns = windowed(lat, at, 0.50), windowed(lat, at, 0.90)
	p.goodput = float64(len(lat)) / p.elapsedS
	p.p99Ns = pctl(lat, 0.99)
	for k := range phase {
		p.phaseP50Ns[k] = pctl(phase[k], 0.50)
	}
	lat, at, phase = nil, nil, [4][]int64{}
	if settleFailed {
		p.fail(errors.New("deployment did not settle after a batch"))
	}

	st = n.rt.Stats()
	p.stats1 = txStats{st.Aborted, st.Derived}
	p.transitive = n.rt.Table("transitive").Len()
	p.snapshots = n.tap.snapshots - snaps0
	if n.store != nil {
		p.durRecords1 = n.store.LastSeq()
		if fs, err := durable.DirFS(n.dir); err == nil {
			if info, err := durable.Inspect(fs); err == nil {
				p.durLogBytes = info.LogBytes
			}
		}
	}
	if n.dep != nil {
		m1 := n.depMetrics()
		p.shard = shardStats{
			ticks:     n.dep.SubmittedTicks() - sub0,
			netSent:   n.cl.Net.Stats().Sent - net0,
			virtualUs: int64(n.cl.Net.Now()) - virt0,
			decrees:   (m1.SubmitDecrees + m1.AttemptDecrees + m1.CommitDecrees + m1.StaleDecrees) - (m0.SubmitDecrees + m0.AttemptDecrees + m0.CommitDecrees + m0.StaleDecrees),
			stale:     m1.StaleDecrees - m0.StaleDecrees,
			elections: m1.Elections - m0.Elections,
		}
		if killAt >= 0 {
			p.shard.failoverVirtualUs = int64(m1.LastLeaderChange) - killAt
		}
	}

	// Live heap of the serving stack after a final GC, with the per-request
	// records already folded into summaries.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6

	p.check(exp)
	if n.store != nil {
		var err error
		p.restartRecords, err = n.restart(func(rec map[string][]datalog.Tuple) error {
			return checkState(rec, p.w.people, exp)
		})
		if err != nil {
			p.fail(fmt.Errorf("restart: %w", err))
		}
	}

	// The drill's second block, with the serving node's state released as
	// in a restarted process: with ~50 MB of it still live, whether the
	// drill's allocations crossed the next GC trigger split recover_s
	// between two levels 30% apart from run to run.
	n.rt, n.tap, n.dep, n.cl = nil, nil, nil, nil
	if err := p.recover.drill(drillC, img, p.tr, nil); err != nil {
		p.fail(fmt.Errorf("recovery drill: %w", err))
	}

	if p.tr != nil {
		spanDir := filepath.Join(p.workdir, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err == nil {
			path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.csv", p.w.name, p.seed))
			if err := p.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
	}
	return nil
}

// check runs the output checks on the final state.
func (p *pass) check(exp *expectation) {
	n := p.n
	p.vaccOK, p.vaccRefused, p.vaccineCount = exp.vaccOK, exp.vaccRefused, n.rt.Var("vaccine_count")
	p.fail(checkVaccines(p.vaccOK, p.vaccRefused, p.vaccineCount))
	live := tables(n.rt, statePreds)
	p.fail(checkState(live, p.w.people, exp))
	if n.dep != nil {
		if !n.dep.Settle(settleBudget) {
			p.fail(errors.New("deployment did not settle at the end"))
		}
		p.fail(sameTables("deployment vs serving node", n.dep.Dump(), live))
		p.fail(n.dep.CheckMirrors())
		m := n.dep.Metrics()
		if m.DoubleCommits != 0 {
			p.fail(fmt.Errorf("%d double commits", m.DoubleCommits))
		}
		if m.Elections != 1 {
			p.fail(fmt.Errorf("%d elections, want exactly 1 (one leader kill)", m.Elections))
		}
	}
}

// openLoop offers rate×seconds requests at fixed due times and waits for
// every response; latency runs from each request's due time.
func (p *pass) openLoop(srv *serve.Server, g *gen, start time.Time) []outcome {
	total := int(p.w.rate * p.seconds)
	interval := float64(time.Second) / p.w.rate
	type sent struct {
		i   int
		q   req
		due time.Time
		pd  *serve.Pending
		err error
	}
	// Sized to every send, so the generator never waits on the reader.
	ch := make(chan sent, total)
	go func() {
		defer close(ch)
		for i := 0; i < total; i++ {
			due := start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			q := g.request(i)
			pd, err := srv.Submit(serve.Request{Mailbox: mailboxes[q.kind], Payload: q.payload()})
			ch <- sent{i, q, due, pd, err}
		}
	}()
	outs := make([]outcome, 0, total)
	for s := range ch {
		o := outcome{q: s.q, atNs: s.due.Sub(start).Nanoseconds()}
		if s.err != nil {
			o.failed = true
			outs = append(outs, o)
			continue
		}
		r := s.pd.Wait()
		o.timing = r.Timing
		o.lateNs = r.Timing.EnqueueUnixNs - s.due.UnixNano()
		o.latNs = r.Timing.EnqueueUnixNs + r.Timing.TotalNs - s.due.UnixNano()
		p.settle(&o, r)
		outs = append(outs, o)
	}
	return outs
}

// settle folds a response into an outcome.
func (p *pass) settle(o *outcome, r serve.Response) {
	if r.Err != nil {
		o.failed = true
		return
	}
	o.replyOK = checkReply(o.q, r.Reply)
	o.vaccOK = o.q.kind == kVaccinate && isOK(r.Reply)
}

// failover kills the deployment's leader coordinator a third of the way
// into the timed phase and recovers it at two thirds.
func (p *pass) failover(srv *serve.Server, start time.Time, killAt *int64) {
	var victim string
	time.Sleep(time.Until(start.Add(time.Duration(p.seconds / 3 * float64(time.Second)))))
	srv.Sync(func(*transducer.Runtime) {
		victim = p.n.dep.Leader()
		*killAt = int64(p.n.cl.Net.Now())
		p.n.dep.KillCoordinator(victim)
	})
	time.Sleep(time.Until(start.Add(time.Duration(p.seconds * 2 / 3 * float64(time.Second)))))
	srv.Sync(func(*transducer.Runtime) { p.n.dep.RecoverCoordinator(victim) })
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowed is the median, over the one-second windows of the timed phase
// (by send time), of each window's q-th latency percentile. A stall of the
// shared host then moves one window's figure instead of the run's.
func windowed(lat, at []int64, q float64) int64 {
	byWin := map[int64][]int64{}
	for i, l := range lat {
		w := at[i] / int64(time.Second)
		byWin[w] = append(byWin[w], l)
	}
	var per []float64
	for _, ls := range byWin {
		per = append(per, float64(pctl(ls, q)))
	}
	return int64(median(per))
}

// pctl is the nearest-rank percentile of xs (sorted in place).
func pctl(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.999999) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// depMetrics snapshots the deployment's control plane (zero without one).
func (n *node) depMetrics() shard.Metrics {
	if n.dep == nil {
		return shard.Metrics{}
	}
	return n.dep.Metrics()
}

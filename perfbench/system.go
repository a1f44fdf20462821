package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/hydrolysis"
	"hydro/internal/serve"
	"hydro/internal/shard"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// settleBudget bounds one dep.Settle call; a tick whose leader was just
// killed needs an election and a watchdog retry, thousands of events.
const settleBudget = 2_000_000

// preloadChunk is how many preload messages share one tick.
const preloadChunk = 4096

// node is one deployed serving stack: the compiled program, the serving
// runtime, and the workload's durable store or sharded deployment.
type node struct {
	w     *workload
	seed  int64
	c     *hydrolysis.Compiled
	rt    *transducer.Runtime
	tap   *tap
	dir   string // the durable store's directory
	store *durable.Store
	cl    *cluster.Cluster
	dep   *shard.Deployment

	compileS, preloadS float64
}

// setup builds a node and preloads the population: every person, and the
// ring and chord contacts of every community. Everything here counts in
// setup_s.
func setup(w *workload, seed int64, workdir string) (*node, error) {
	n := &node{w: w, seed: seed}
	t0 := time.Now()
	c, err := compileProgram()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	n.c = c
	n.compileS = time.Since(t0).Seconds()
	if n.rt, err = c.Instantiate("serve1", seed); err != nil {
		return nil, fmt.Errorf("instantiate: %w", err)
	}
	if !n.rt.IncrementalQueries() {
		return nil, fmt.Errorf("instantiate: COVID program did not get incremental queries")
	}
	n.rt.SetDelay(func(*rand.Rand) int { return 1 })
	switch w.kind {
	case "durable":
		if n.dir, err = os.MkdirTemp(workdir, "durable-"); err != nil {
			return nil, err
		}
		if n.store, err = durable.Open(durableOptions(n.dir)); err != nil {
			return nil, fmt.Errorf("durable open: %w", err)
		}
		if err := n.rt.RecoverQueriesIncremental(c.Queries, n.store.Recover); err != nil {
			return nil, fmt.Errorf("durable boot: %w", err)
		}
		n.tap = &tap{inner: n.store, store: n.store}
	case "sharded":
		n.cl = cluster.New(cluster.NewTopology(3, 2, 2, cluster.ClassSmall), simnet.DefaultConfig(seed))
		if n.dep, err = c.InstantiateSharded(n.cl, "covid", 3, shard.Options{}); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		n.tap = &tap{inner: shard.NewSink(n.dep)}
	default:
		// The read workload serves from memory; its tap forwards nowhere.
		n.tap = &tap{}
	}
	if err := n.rt.SetDurability(n.tap); err != nil {
		return nil, err
	}

	t1 := time.Now()
	var batch []transducer.Injection
	for pid := int64(0); pid < int64(w.people); pid++ {
		batch = append(batch, transducer.Injection{Mailbox: "add_person", Payload: datalog.Tuple{pid, country(pid)}})
	}
	for _, p := range preloadPairs(w.people) {
		batch = append(batch, transducer.Injection{Mailbox: "add_contact", Payload: datalog.Tuple{p.a, p.b}})
	}
	for len(batch) > 0 {
		k := min(preloadChunk, len(batch))
		n.rt.InjectBatch(batch[:k])
		batch = batch[k:]
		n.rt.Tick()
		n.rt.RunUntilIdle(256)
		if err := n.rt.LastRejection(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		n.rt.Drain("add_person<response>")
		n.rt.Drain("add_contact<response>")
		if n.dep != nil && !n.dep.Settle(settleBudget) {
			return nil, fmt.Errorf("preload: deployment did not settle")
		}
	}
	n.preloadS = time.Since(t1).Seconds()
	return n, nil
}

// durableOptions is the durable workload's store configuration.
//
// SyncNever: with SyncAlways, latency followed the shared disk's fsync
// time, which swung several-fold from one second to the next on the
// reference host (README). Snapshots still fsync. At the workload's ~500
// records/s the default 1024-record snapshot threshold would snapshot the
// whole state every two seconds, and the stalls set the latency tail;
// every 4096 records gives two per 20 s run.
func durableOptions(dir string) durable.Options {
	return durable.Options{Dir: dir, Sync: durable.SyncNever, SnapshotEveryRecords: 4096}
}

// restart closes the durable workload's store as the timed phase left it,
// releases the serving runtime, and opens and recovers the store into a
// fresh runtime, as a restarted process would: the snapshot the run last
// wrote plus every record logged after it. check sees the recovered
// tables. It returns the records replayed.
func (n *node) restart(check func(map[string][]datalog.Tuple) error) (int, error) {
	if err := n.store.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	n.rt, n.tap, n.store = nil, nil, nil
	runtime.GC()
	fs, err := durable.DirFS(n.dir)
	if err != nil {
		return 0, err
	}
	info, err := durable.Inspect(fs)
	if err != nil {
		return 0, err
	}
	rt, err := n.c.Instantiate("serve1", n.seed)
	if err != nil {
		return 0, err
	}
	if n.store, err = durable.Open(durableOptions(n.dir)); err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	if err := rt.RecoverQueriesIncremental(n.c.Queries, n.store.Recover); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	if err := check(tables(rt, statePreds)); err != nil {
		return 0, fmt.Errorf("recovered state: %w", err)
	}
	return info.LogRecords, nil
}

// discard releases a node built only to time set-up.
func (n *node) discard() {
	if n.store != nil {
		n.store.Close()
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// serveConfig is hydroload's serving configuration, with Block so no
// request is shed.
func (n *node) serveConfig(tr *tracer, settleFailed *bool) serve.Config {
	cfg := serve.Config{
		MaxBatch:        128,
		MaxWait:         500 * time.Microsecond,
		QueueDepth:      1024,
		Policy:          serve.Block,
		SerialMailboxes: []string{"vaccinate"},
		Lanes:           true,
		DrainMailboxes:  []string{"alert", "trace_response"},
	}
	if n.dep != nil {
		cfg.Fanout = n.tap
		cfg.FanoutPump = func() {
			start := tr.now()
			if !n.dep.Settle(settleBudget) {
				*settleFailed = true
			}
			tr.record(spSettle, start)
		}
	}
	return cfg
}

// tables reads the runtime's relations.
func tables(rt *transducer.Runtime, preds []string) map[string][]datalog.Tuple {
	out := map[string][]datalog.Tuple{}
	for _, p := range preds {
		if rel := rt.Table(p); rel != nil {
			out[p] = rel.Tuples()
		} else {
			out[p] = nil
		}
	}
	return out
}

var statePreds = []string{"people", "contacts", "transitive"}

// recovery is the outcome of the recovery drill.
type recovery struct {
	seconds, openS []float64
	records        int
}

// The drill recovers the same image in two blocks, one before the timed
// phase and one after it; each block recovers at least minRecovers times
// and until the recoveries' CPU time adds up to recoverBudget (at most
// maxRecovers), and recover_s is the median over both. recover_s is
// process CPU time, for the reason setup_s is: over eight consecutive
// runs the median recovery took 0.138–0.184 s of wall time and
// 0.173–0.198 s of CPU time, and ten-run medians of the wall time moved
// 43% between two sets taken half an hour apart.
const (
	minRecovers   = 3
	maxRecovers   = 100
	recoverBudget = 2 * time.Second
)

// drill runs one block of the recovery drill: durable.Open +
// RecoverQueriesIncremental of dir into fresh runtimes of c, each after a
// full GC, with each one's CPU time added to rc. check, when set, sees
// the first recovery's tables.
func (rc *recovery) drill(c *hydrolysis.Compiled, dir string, tr *tracer, check func(map[string][]datalog.Tuple) error) error {
	fs, err := durable.DirFS(dir)
	if err != nil {
		return err
	}
	info, err := durable.Inspect(fs)
	if err != nil {
		return err
	}
	rc.records = info.LogRecords
	secs, err := repeatTimed(minRecovers, maxRecovers, recoverBudget, func(i int) (float64, error) {
		rt, err := c.Instantiate("recovered", 1)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		c0 := cpuSeconds()
		s0 := tr.now()
		st, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return 0, fmt.Errorf("open: %w", err)
		}
		s1 := tr.record(spOpen, s0)
		t1 := time.Now()
		err = rt.RecoverQueriesIncremental(c.Queries, st.Recover)
		tr.record(spRecover, s1)
		s := cpuSeconds() - c0
		rc.openS = append(rc.openS, t1.Sub(t0).Seconds())
		st.Close()
		if err != nil {
			return 0, err
		}
		if i == 0 && check != nil {
			if err := check(tables(rt, statePreds)); err != nil {
				return 0, fmt.Errorf("recovered state: %w", err)
			}
		}
		return s, nil
	})
	rc.seconds = append(rc.seconds, secs...)
	return err
}

// tailPairs is how many ring pairs the drill image removes and re-adds
// after its snapshot: a fixed replay of 2×tailPairs records. Each
// replayed removal is a small parallel DRed pass whose time follows the
// host's scheduling; with 128 pairs the replay set recover_s and spread
// it 26–42% over ten runs.
const tailPairs = 8

// drillWorkload is the population every workload's recovery drill
// recovers: 16,384 people, whatever the workload serves, so recover_s
// does the same work everywhere. The sharded workload's own 1,024 people
// recovered in ~9 ms, a time the host's scheduling noise spread 40% over
// ten runs.
var drillWorkload = &workload{name: "drill", kind: "read", people: 16384}

// drillImage builds the recovery drill's image: a node of drillWorkload
// (the same in every run whatever the seed) journals into a fresh durable
// store, which snapshots the preloaded state; then the fixed tail, then
// the store is closed and the node released. The drill's work is a
// snapshot restore plus 2×tailPairs replayed records. It returns the
// image's directory and the compiled program the drill recovers with.
func drillImage(seed int64, workdir string) (string, *hydrolysis.Compiled, error) {
	n, err := setup(drillWorkload, seed, workdir)
	if err != nil {
		return "", nil, err
	}
	defer n.discard()
	if n.dir, err = os.MkdirTemp(workdir, "image-"); err != nil {
		return "", nil, err
	}
	if n.store, err = durable.Open(durable.Options{Dir: n.dir}); err != nil {
		return "", nil, err
	}
	n.tap.inner, n.tap.store = n.store, n.store
	if err := n.store.Snapshot(n.tap.inc); err != nil {
		return "", nil, fmt.Errorf("snapshot: %w", err)
	}
	for k := 0; k < tailPairs; k++ {
		p := ringPair(int64(k%(drillWorkload.people/commSize)), int64(k/(drillWorkload.people/commSize))%commSize)
		for _, box := range []string{"remove_contact", "add_contact"} {
			n.rt.Inject(box, datalog.Tuple{p.a, p.b})
			n.rt.Tick()
			n.rt.RunUntilIdle(256)
			if err := n.rt.LastRejection(); err != nil {
				return "", nil, fmt.Errorf("tail: %w", err)
			}
			n.rt.Drain(box + "<response>")
		}
	}
	err = n.store.Close()
	n.store = nil
	// The image outlives the node: discard must not remove it.
	dir := n.dir
	n.dir = ""
	return dir, n.c, err
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"hydro/internal/datalog"
	"hydro/internal/durable"
	"hydro/internal/transducer"
)

// Span kinds recorded around the benchmark's calls into each layer.
type spanKind uint8

const (
	spAppend   spanKind = iota // sink Append: changelog append+fsync, or shard staging
	spMaintain                 // Append returned → Committed called: exactly Incremental.Apply
	spCommit                   // sink Committed: snapshot check, or shard Submit decrees
	spSettle                   // FanoutPump: dep.Settle drives the simulated cluster
	spOpen                     // durable.Open
	spRecover                  // RecoverQueriesIncremental
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"append", "maintain", "commit", "settle", "open", "recover"}

type span struct {
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil tracer records nothing and costs one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	total [numSpanKinds]time.Duration
	count [numSpanKinds]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) record(k spanKind, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.spans = append(t.spans, span{k, start, end})
	t.total[k] += time.Duration(end - start)
	t.count[k]++
	return end
}

func (t *tracer) seconds(k spanKind) float64 {
	if t == nil {
		return 0
	}
	return t.total[k].Seconds()
}

// write dumps the spans as CSV (kind, start_ns, end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d\n", spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tap is the benchmark's pass-through DurabilitySink. It forwards to the
// node's real sink (a durable.Store, a shard.Sink, or none), keeps the
// evaluator the runtime commits with (the durable workload snapshots it
// before its recovery drill), and, when tracing, times Append, Committed
// and the maintenance pass between them.
type tap struct {
	inner     transducer.DurabilitySink
	store     *durable.Store // set when inner is a durable store: snapshot counting
	inc       *datalog.Incremental
	tr        *tracer
	appendEnd int64
	snapshots int
}

func (t *tap) Append(d *datalog.Delta) error {
	start := t.tr.now()
	var err error
	if t.inner != nil {
		err = t.inner.Append(d)
	}
	t.appendEnd = t.tr.record(spAppend, start)
	return err
}

func (t *tap) AbortLast() error {
	if t.inner == nil {
		return nil
	}
	return t.inner.AbortLast()
}

func (t *tap) Committed(inc *datalog.Incremental) error {
	t.inc = inc
	start := t.tr.record(spMaintain, t.appendEnd)
	if t.inner == nil {
		return nil
	}
	var snapSeq uint64
	if t.store != nil {
		snapSeq = t.store.SnapshotSeq()
	}
	err := t.inner.Committed(inc)
	if t.store != nil && t.store.SnapshotSeq() != snapSeq {
		t.snapshots++
	}
	t.tr.record(spCommit, start)
	return err
}

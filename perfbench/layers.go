package main

import (
	"fmt"
	"time"
)

// perLayer assembles the per-layer metrics of a traced pass; base is the
// untraced pass of the same workload and seed, for the tracing overhead.
// A layer the workload does not run reads 0.
func perLayer(p, base *pass) map[string]metric {
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	sec := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	perTick := func(total float64, ticks uint64) float64 {
		if ticks == 0 {
			return 0
		}
		return total / float64(ticks)
	}
	sm, tr := p.sm, p.tr

	for k, name := range []string{"queue", "flush", "eval", "respond"} {
		put("serve."+name+"_ms_p50", float64(p.phaseP50Ns[k])/1e6, "ms")
	}
	put("serve.batch_size_mean", perTick(float64(p.attempted-p.failed), sm.Batches), "count")
	put("serve.batches", float64(sm.Batches), "count")
	put("serve.deadline_flushes", float64(sm.DeadlineFlushes), "count")
	put("serve.eval_busy_s", sec(sm.EvalBusyNs), "s")
	put("serve.collect_wait_s", sec(sm.CollectWaitNs), "s")
	put("serve.handoff_block_s", sec(sm.HandoffBlockNs), "s")
	put("serve.queue_high_water", float64(sm.QueueHighWater), "count")

	put("transducer.ticks", float64(sm.Ticks), "count")
	put("transducer.deliver_s", sec(sm.TickDeliverNs), "s")
	put("transducer.snapshot_s", sec(sm.TickSnapshotNs), "s")
	put("transducer.handlers_s", sec(sm.TickHandlersNs), "s")
	put("transducer.apply_s", sec(sm.TickApplyNs), "s")
	put("transducer.aborted", float64(p.stats1.aborted-p.stats0.aborted), "count")

	put("datalog.maintain_s", tr.seconds(spMaintain), "s")
	put("datalog.maintain_ms_per_tick", perTick(tr.seconds(spMaintain)*1e3, uint64(tr.count[spMaintain])), "ms")
	put("datalog.derived", float64(p.stats1.derived-p.stats0.derived), "count")
	put("datalog.transitive_tuples", float64(p.transitive), "count")

	var appendS, commitS, submitS float64
	if p.w.kind == "durable" {
		appendS, commitS = tr.seconds(spAppend), tr.seconds(spCommit)
	}
	if p.w.kind == "sharded" {
		submitS = tr.seconds(spAppend) + tr.seconds(spCommit)
	}
	put("durable.append_s", appendS, "s")
	put("durable.records", float64(p.durRecords1-p.durRecords0), "count")
	put("durable.commit_s", commitS, "s")
	put("durable.snapshots", float64(p.snapshots), "count")
	put("durable.log_bytes", float64(p.durLogBytes), "bytes")
	put("durable.open_s", median(p.recover.openS), "s")
	put("durable.replay_records", float64(p.recover.records), "count")

	sh := p.shard
	put("shard.submit_s", submitS, "s")
	put("shard.settle_s", tr.seconds(spSettle), "s")
	put("shard.ticks", float64(sh.ticks), "count")
	put("shard.settle_ms_per_tick", perTick(tr.seconds(spSettle)*1e3, sh.ticks), "ms")
	// Virtual time is simnet time, reported apart and never added to wall time.
	put("shard.virtual_ms_per_tick", perTick(float64(sh.virtualUs)/1e3, sh.ticks), "ms")
	put("shard.msgs_per_tick", perTick(float64(sh.netSent), sh.ticks), "count")
	put("consensus.decrees_per_tick", perTick(float64(sh.decrees), sh.ticks), "count")
	put("consensus.stale_decrees_per_tick", perTick(float64(sh.stale), sh.ticks), "count")
	put("consensus.elections", float64(sh.elections), "count")
	put("consensus.failover_virtual_ms", float64(sh.failoverVirtualUs)/1e3, "ms")

	put("hydrolysis.compile_s", p.compileS, "s")
	put("gen.preload_s", p.preloadS, "s")
	put("gen.late_ms_max", float64(p.lateMaxNs)/1e6, "ms")

	put("trace.overhead_pct", 100*(cpuPerReq(p)-cpuPerReq(base))/cpuPerReq(base), "%")
	_, covered := ledger(p)
	put("ledger.coverage_pct", 100*covered/sec(sm.EvalBusyNs), "%")
	return ms
}

type ledgerRow struct {
	name string
	s    float64
}

// ledger is the self-time breakdown of the eval path: serve's inject
// phase, the tick phases serve records, with the apply phase's self time
// net of the sink and maintenance spans inside it, then those spans, the
// deployment settle the serving node pumps after each batch, and serve's
// reply routing and respond phase. covered sums the rows.
func ledger(p *pass) ([]ledgerRow, float64) {
	sm, tr := p.sm, p.tr
	sec := func(ns int64) float64 { return time.Duration(ns).Seconds() }
	inApply := tr.seconds(spAppend) + tr.seconds(spMaintain) + tr.seconds(spCommit)
	rows := []ledgerRow{
		{"serve.inject", sec(p.injectNs)},
		{"transducer.deliver", sec(sm.TickDeliverNs)},
		{"transducer.snapshot", sec(sm.TickSnapshotNs)},
		{"transducer.handlers", sec(sm.TickHandlersNs)},
		{"transducer.apply (self)", sec(sm.TickApplyNs) - inApply},
		{"datalog.maintain", tr.seconds(spMaintain)},
	}
	switch p.w.kind {
	case "durable":
		rows = append(rows, ledgerRow{"durable.append", tr.seconds(spAppend)}, ledgerRow{"durable.commit", tr.seconds(spCommit)})
	case "sharded":
		rows = append(rows, ledgerRow{"shard.submit", tr.seconds(spAppend) + tr.seconds(spCommit)}, ledgerRow{"shard.settle", tr.seconds(spSettle)})
	default:
		rows = append(rows, ledgerRow{"sink probe (no sink)", tr.seconds(spAppend) + tr.seconds(spCommit)})
	}
	rows = append(rows, ledgerRow{"serve.route+respond", sec(p.respondNs)})
	covered := 0.0
	for _, r := range rows {
		covered += r.s
	}
	return rows, covered
}

func printLedger(p *pass, ms map[string]metric) {
	rows, covered := ledger(p)
	busy := time.Duration(p.sm.EvalBusyNs).Seconds()
	fmt.Printf("== eval-path self-time ledger, %s seed %d (traced)\n", p.w.name, p.seed)
	for _, r := range rows {
		fmt.Printf("  %-26s %10.4f s %6.1f%%\n", r.name, r.s, 100*r.s/busy)
	}
	fmt.Printf("  %-26s %10.4f s %6.1f%%\n", "sum of rows", covered, 100*covered/busy)
	fmt.Printf("  %-26s %10.4f s (tick bookkeeping, metrics, idle checks)\n", "rest of serve.eval_busy", busy-covered)
	fmt.Printf("  %-26s %10.4f s\n", "serve.eval_busy_s", busy)
	fmt.Printf("  %-26s %10.2f %%\n", "tracing overhead (cpu/req)", ms["trace.overhead_pct"].Value)
	fmt.Println("== per-layer metrics")
	for _, name := range sortedKeys(ms) {
		fmt.Printf("  %-36s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

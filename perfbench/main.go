// Command perfbench is the end-to-end benchmark of the serving stack: it
// drives the paper's COVID program through internal/serve →
// internal/transducer → internal/datalog, adding the internal/durable
// changelog or the internal/shard + internal/consensus deployment on the
// write workloads, checks every output against values it computes on its
// own, and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced and then with spans around every call
// into a layer, and the metrics are the per-layer ones plus the tracing
// overhead. --steady K runs each workload K times (seeds 1..K) in child
// processes and prints the median and quartiles of every end-to-end
// metric. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (covid-read-open, covid-write-durable, covid-write-sharded)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
		steady  = flag.Int("steady", 0, "run each workload this many times (seeds 1..K) and print quartiles")
		workdir = flag.String("workdir", ".bench_build/run", "directory for stores, images and span files")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*name, *steady, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func runWorkload(w *workload, seed int64, seconds float64, traced bool, workdir string) (*result, error) {
	if !traced {
		p := &pass{w: w, seed: seed, seconds: seconds, workdir: workdir}
		if err := p.run(true); err != nil {
			return nil, err
		}
		report(p)
		return &result{Correct: len(p.checkErrs) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p)}, nil
	}
	base := &pass{w: w, seed: seed, seconds: seconds, workdir: workdir}
	if err := base.run(false); err != nil {
		return nil, err
	}
	report(base)
	base.n = nil
	runtime.GC()
	p := &pass{w: w, seed: seed, seconds: seconds, workdir: workdir, traced: true}
	if err := p.run(false); err != nil {
		return nil, err
	}
	report(p)
	ms := perLayer(p, base)
	printLedger(p, ms)
	ok := len(p.checkErrs) == 0 && len(base.checkErrs) == 0
	return &result{Correct: ok, Attempted: p.attempted, Failed: p.failed, Metrics: ms}, nil
}

func endToEnd(p *pass) map[string]metric {
	return map[string]metric{
		"p50_ms":         {float64(p.p50Ns) / 1e6, "ms"},
		"goodput_rps":    {p.goodput, "1/s"},
		"cpu_us_per_req": {cpuPerReq(p), "us"},
		"heap_mb":        {p.heapMB, "MB"},
		"recover_s":      {median(p.recover.seconds), "s"},
		"setup_s":        {p.setupS, "s"},
	}
}

func cpuPerReq(p *pass) float64 { return p.cpuS * 1e6 / float64(max(p.attempted, 1)) }

// report prints a pass's human-readable summary and check results.
func report(p *pass) {
	mode := "untraced"
	if p.traced {
		mode = "traced"
	}
	fmt.Printf("== %s seed %d (%s): %d requests in %.2fs, %d failed\n", p.w.name, p.seed, mode, p.attempted, p.elapsedS, p.failed)
	e := endToEnd(p)
	for _, k := range endToEndNames {
		fmt.Printf("  %-16s %12.4f %s\n", k, e[k].Value, e[k].Unit)
	}
	// p90 and p99 are reference figures only: on a small shared host they
	// do not repeat within a bound (README, Steadiness).
	fmt.Printf("  %-16s %12.4f ms (reference only)\n", "p90", float64(p.p90Ns)/1e6)
	fmt.Printf("  %-16s %12.4f ms (reference only, %d samples beyond it)\n", "p99", float64(p.p99Ns)/1e6, (p.attempted-p.failed)/100)
	if len(p.setupReps) > 1 {
		fmt.Printf("  set-up repetitions: %s s\n", fmtVals(p.setupReps))
	}
	fmt.Printf("  vaccinate: %d OK replies, %d refused, vaccine_count ends at %v\n", p.vaccOK, p.vaccRefused, p.vaccineCount)
	if p.w.kind == "durable" {
		fmt.Printf("  restart: recovered the store as the run left it, replaying %d records\n", p.restartRecords)
	}
	if len(p.checkErrs) == 0 {
		fmt.Println("  checks: all passed")
	}
	for _, err := range p.checkErrs {
		fmt.Println("  CHECK FAILED:", err)
	}
}

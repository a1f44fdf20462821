package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

var endToEndNames = []string{"p50_ms", "goodput_rps", "cpu_us_per_req", "heap_mb", "recover_s", "setup_s"}

// steadiness runs each workload k times in child processes of this
// binary, seeds 1..k, and prints the median, quartiles and quartile
// spread (as a share of the median) of every end-to-end metric — the
// figures the bounds in BENCHMARK.json are set from.
func steadiness(only string, k int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		vals := map[string][]float64{}
		var fails []string
		for seed := 1; seed <= k; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", w.name, seed)
			}
			fails = append(fails, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done\n", w.name, seed)
		}
		fmt.Printf("== %s: %d runs, failed/attempted %s\n", w.name, k, strings.Join(fails, " "))
		fmt.Printf("  %-16s %12s %12s %12s %9s\n", "metric", "q1", "median", "q3", "spread")
		for _, name := range endToEndNames {
			q1, med, q3 := quartiles(vals[name])
			fmt.Printf("  %-16s %12.4f %12.4f %12.4f %8.2f%%   %s\n", name, q1, med, q3, 100*(q3-q1)/med, fmtVals(vals[name]))
		}
	}
	return nil
}

func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &r, nil
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtVals(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

package main

import (
	"fmt"
	"sort"
	"strings"

	"hydro/internal/datalog"
)

// The output checks compare the program's tables and replies against
// values the benchmark computes on its own from the requests it sent,
// never against a stored copy of earlier output.

// expectation is what the executed requests imply, order-independently.
type expectation struct {
	contacts    map[pair]bool  // undirected pairs
	diagnosed   map[int64]bool // pids with a diagnosed request
	vaccinated  map[int64]bool // pids with an OK vaccinate reply
	vaccOK      int            // vaccinate requests answered OK
	vaccRefused int            // vaccinate requests refused (not answered OK)
}

func newExpectation(people int) *expectation {
	e := &expectation{contacts: map[pair]bool{}, diagnosed: map[int64]bool{}, vaccinated: map[int64]bool{}}
	for _, p := range preloadPairs(people) {
		e.contacts[p] = true
	}
	return e
}

// observe folds one executed request into the expectation; vaccOK says
// whether a vaccinate request was answered OK.
func (e *expectation) observe(q req, vaccOK bool) {
	switch q.kind {
	case kAddContact:
		e.contacts[mkPair(q.a, q.b)] = true
	case kRemoveContact:
		delete(e.contacts, mkPair(q.a, q.b))
	case kDiagnosed:
		e.diagnosed[q.a] = true
	case kVaccinate:
		if vaccOK {
			e.vaccOK++
			e.vaccinated[q.a] = true
		} else {
			e.vaccRefused++
		}
	}
}

func isOK(reply datalog.Tuple) bool { return len(reply) == 1 && reply[0] == "OK" }

// checkReply validates one reply against the handler's contract:
// likelihood answers (pid%100)/100, trace answers through its
// trace_response send and replies nothing, vaccinate answers OK while
// stock lasts and ABORT once its require clause refuses, and every other
// handler answers OK.
func checkReply(q req, reply datalog.Tuple) error {
	switch q.kind {
	case kLikelihood:
		if len(reply) == 1 {
			if f, ok := reply[0].(float64); ok && f == likelihood(q.a) {
				return nil
			}
		}
		return fmt.Errorf("likelihood(%d) replied %v, want [%v]", q.a, reply, likelihood(q.a))
	case kTrace:
		if len(reply) != 0 {
			return fmt.Errorf("trace(%d) replied %v, want no reply", q.a, reply)
		}
		return nil
	case kVaccinate:
		// A refusal should reply ABORT, but the runtime drops replies an
		// aborted invocation staged, so it arrives empty (see README).
		if isOK(reply) || len(reply) == 0 || (len(reply) == 1 && reply[0] == "ABORT") {
			return nil
		}
		return fmt.Errorf("vaccinate(%d) replied %v, want [OK], [ABORT] or none", q.a, reply)
	default:
		if !isOK(reply) {
			return fmt.Errorf("%s(%d, %d) replied %v, want [OK]", mailboxes[q.kind], q.a, q.b, reply)
		}
		return nil
	}
}

// checkVaccines checks the serializable handler: every OK reply took
// exactly one vaccine from the stock (conservation, which breaks on any
// lost update), and a request was refused only if the stock ran out (a
// refusal leaves the count alone, so conservation alone would pass a
// spurious abort or a lost reply).
func checkVaccines(okReplies, refused int, finalCount any) error {
	n, ok := finalCount.(int64)
	if !ok {
		return fmt.Errorf("vaccine_count is %T %v, want int64", finalCount, finalCount)
	}
	if int64(okReplies) != vaccineStock-n {
		return fmt.Errorf("%d OK vaccinate replies but vaccine_count fell from %d to %d", okReplies, vaccineStock, n)
	}
	if refused > 0 && n > 0 {
		return fmt.Errorf("%d vaccinate requests refused but vaccine_count ends at %d", refused, n)
	}
	return nil
}

// edges is a directed edge set.
type edges map[[2]int64]bool

func edgeSet(ts []datalog.Tuple) (edges, error) {
	out := make(edges, len(ts))
	for _, t := range ts {
		if len(t) != 2 {
			return nil, fmt.Errorf("tuple %v is not (int, int)", t)
		}
		a, ok1 := t[0].(int64)
		b, ok2 := t[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("tuple %v is not (int, int)", t)
		}
		out[[2]int64{a, b}] = true
	}
	return out, nil
}

// directed expands undirected contacts into both directions, the way
// add_contact stores them.
func directed(ps map[pair]bool) edges {
	out := make(edges, 2*len(ps))
	for p := range ps {
		out[[2]int64{p.a, p.b}] = true
		out[[2]int64{p.b, p.a}] = true
	}
	return out
}

// closure is the transitive closure by breadth-first search from every
// node: (x, y) is in it when y is reachable from x in one or more steps.
func closure(g edges) edges {
	adj := map[int64][]int64{}
	for e := range g {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	out := edges{}
	for x, next := range adj {
		seen := map[int64]bool{}
		queue := append([]int64(nil), next...)
		for len(queue) > 0 {
			y := queue[0]
			queue = queue[1:]
			if seen[y] {
				continue
			}
			seen[y] = true
			out[[2]int64{x, y}] = true
			queue = append(queue, adj[y]...)
		}
	}
	return out
}

// diffEdges reports how got differs from want.
func diffEdges(name string, got, want edges) error {
	var missing, extra []string
	for e := range want {
		if !got[e] {
			missing = append(missing, fmt.Sprint(e))
		}
	}
	for e := range got {
		if !want[e] {
			extra = append(extra, fmt.Sprint(e))
		}
	}
	return diffReport(name, missing, extra)
}

func diffReport(name string, missing, extra []string) error {
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("%s: %d missing %s, %d extra %s", name,
		len(missing), sample(missing), len(extra), sample(extra))
}

func sample(s []string) string {
	if len(s) > 3 {
		s = append(s[:3:3], "...")
	}
	return "[" + strings.Join(s, " ") + "]"
}

// checkGraph checks contacts against the expected pairs and transitive
// against the breadth-first closure of those pairs.
func checkGraph(contacts, transitive []datalog.Tuple, want map[pair]bool) error {
	wantC := directed(want)
	gotC, err := edgeSet(contacts)
	if err != nil {
		return fmt.Errorf("contacts: %w", err)
	}
	if err := diffEdges("contacts", gotC, wantC); err != nil {
		return err
	}
	gotT, err := edgeSet(transitive)
	if err != nil {
		return fmt.Errorf("transitive: %w", err)
	}
	return diffEdges("transitive", gotT, closure(wantC))
}

// checkPeople checks the people table: every preloaded person is present
// with its country, flagged covid exactly when diagnosed, and vaccinated
// exactly when a vaccinate request for them was answered OK.
func checkPeople(got []datalog.Tuple, people int, e *expectation) error {
	want := map[string]bool{}
	for pid := int64(0); pid < int64(people); pid++ {
		want[tupleKey(datalog.Tuple{pid, country(pid), e.diagnosed[pid], e.vaccinated[pid]})] = true
	}
	return diffTuples("people", got, want)
}

// checkState runs checkGraph and checkPeople on a reading of the state
// relations (statePreds).
func checkState(rel map[string][]datalog.Tuple, people int, e *expectation) error {
	if err := checkGraph(rel["contacts"], rel["transitive"], e.contacts); err != nil {
		return err
	}
	return checkPeople(rel["people"], people, e)
}

func tupleKey(t datalog.Tuple) string { return fmt.Sprintf("%#v", []any(t)) }

func keySet(ts []datalog.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[tupleKey(t)] = true
	}
	return out
}

func diffTuples(name string, got []datalog.Tuple, want map[string]bool) error {
	gotSet := keySet(got)
	var missing, extra []string
	for k := range want {
		if !gotSet[k] {
			missing = append(missing, k)
		}
	}
	for k := range gotSet {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(got) != len(gotSet) {
		extra = append(extra, fmt.Sprintf("%d duplicate rows", len(got)-len(gotSet)))
	}
	return diffReport(name, missing, extra)
}

// sameTables checks that two readings of the same relations agree.
func sameTables(what string, got, want map[string][]datalog.Tuple) error {
	for pred, ts := range want {
		if err := diffTuples(what+" "+pred, got[pred], keySet(ts)); err != nil {
			return err
		}
	}
	for pred := range got {
		if _, ok := want[pred]; !ok {
			return fmt.Errorf("%s: unexpected relation %s", what, pred)
		}
	}
	return nil
}

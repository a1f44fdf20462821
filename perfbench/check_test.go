package main

import (
	"testing"

	"hydro/internal/datalog"
)

// Each output check accepts a hand-computed result and rejects a
// corrupted copy of it.

func tuples(es ...[2]int64) []datalog.Tuple {
	out := make([]datalog.Tuple, len(es))
	for i, e := range es {
		out[i] = datalog.Tuple{e[0], e[1]}
	}
	return out
}

// Contacts {0-1, 1-2} and {5-6}: two components, whose closures (worked
// out by hand) hold every ordered pair of members, self-pairs included.
var (
	handPairs    = map[pair]bool{{0, 1}: true, {1, 2}: true, {5, 6}: true}
	handContacts = tuples([2]int64{0, 1}, [2]int64{1, 0}, [2]int64{1, 2}, [2]int64{2, 1}, [2]int64{5, 6}, [2]int64{6, 5})
	handClosure  = tuples(
		[2]int64{0, 0}, [2]int64{0, 1}, [2]int64{0, 2},
		[2]int64{1, 0}, [2]int64{1, 1}, [2]int64{1, 2},
		[2]int64{2, 0}, [2]int64{2, 1}, [2]int64{2, 2},
		[2]int64{5, 5}, [2]int64{5, 6}, [2]int64{6, 5}, [2]int64{6, 6},
	)
)

func TestCheckGraphAcceptsHandComputed(t *testing.T) {
	if err := checkGraph(handContacts, handClosure, handPairs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGraphRejectsDroppedTransitive(t *testing.T) {
	for i := range handClosure {
		dropped := append(append([]datalog.Tuple(nil), handClosure[:i]...), handClosure[i+1:]...)
		if err := checkGraph(handContacts, dropped, handPairs); err == nil {
			t.Fatalf("dropping transitive%v went unnoticed", handClosure[i])
		}
	}
}

func TestCheckGraphRejectsExtraContact(t *testing.T) {
	extra := append(append([]datalog.Tuple(nil), handContacts...), datalog.Tuple{int64(2), int64(5)})
	if err := checkGraph(extra, handClosure, handPairs); err == nil {
		t.Fatal("an extra contact went unnoticed")
	}
	// A missing direction of a contact is caught too.
	if err := checkGraph(handContacts[1:], handClosure, handPairs); err == nil {
		t.Fatal("a missing contact direction went unnoticed")
	}
}

func TestCheckReply(t *testing.T) {
	good := []struct {
		q     req
		reply datalog.Tuple
	}{
		{req{kind: kLikelihood, a: 1234}, datalog.Tuple{0.34}},
		{req{kind: kTrace, a: 7}, nil},
		{req{kind: kAddContact, a: 1, b: 4}, datalog.Tuple{"OK"}},
		{req{kind: kVaccinate, a: 3}, datalog.Tuple{"OK"}},
		{req{kind: kVaccinate, a: 3}, nil},
	}
	for _, c := range good {
		if err := checkReply(c.q, c.reply); err != nil {
			t.Errorf("%+v: %v", c.q, err)
		}
	}
	bad := []struct {
		q     req
		reply datalog.Tuple
	}{
		{req{kind: kLikelihood, a: 1234}, datalog.Tuple{0.35}},
		{req{kind: kLikelihood, a: 1234}, nil},
		{req{kind: kTrace, a: 7}, datalog.Tuple{"OK"}},
		{req{kind: kDiagnosed, a: 7}, nil},
		{req{kind: kRemoveContact, a: 1, b: 3}, datalog.Tuple{"ERROR: x"}},
		{req{kind: kVaccinate, a: 3}, datalog.Tuple{"ERROR: x"}},
	}
	for _, c := range bad {
		if err := checkReply(c.q, c.reply); err == nil {
			t.Errorf("%+v replying %v went unnoticed", c.q, c.reply)
		}
	}
}

func TestCheckVaccines(t *testing.T) {
	if err := checkVaccines(3, 0, int64(97)); err != nil {
		t.Fatal(err)
	}
	// The stock ran out: refusals are expected.
	if err := checkVaccines(100, 5, int64(0)); err != nil {
		t.Fatal(err)
	}
	// One OK reply too many: an update was lost.
	if err := checkVaccines(4, 0, int64(97)); err == nil {
		t.Fatal("a lost vaccinate update went unnoticed")
	}
	// A refusal while 97 vaccines remain: a spurious abort or lost reply.
	if err := checkVaccines(3, 1, int64(97)); err == nil {
		t.Fatal("a refusal with stock left went unnoticed")
	}
}

func TestCheckPeople(t *testing.T) {
	e := &expectation{diagnosed: map[int64]bool{1: true}, vaccinated: map[int64]bool{2: true}}
	got := []datalog.Tuple{
		{int64(0), "us", false, false},
		{int64(1), "fr", true, false},
		{int64(2), "in", false, true},
	}
	if err := checkPeople(got, 3, e); err != nil {
		t.Fatal(err)
	}
	got[1] = datalog.Tuple{int64(1), "fr", false, false}
	if err := checkPeople(got, 3, e); err == nil {
		t.Fatal("a lost diagnosis went unnoticed")
	}
}

func TestSameTables(t *testing.T) {
	a := map[string][]datalog.Tuple{"contacts": handContacts, "transitive": handClosure}
	if err := sameTables("t", a, a); err != nil {
		t.Fatal(err)
	}
	b := map[string][]datalog.Tuple{"contacts": handContacts, "transitive": handClosure[1:]}
	if err := sameTables("t", b, a); err == nil {
		t.Fatal("a dropped recovered tuple went unnoticed")
	}
}

// The generated streams keep inserts and removals on disjoint pair
// classes, which is what makes the expected contact set order-independent.
func TestStreamsKeepPairClassesApart(t *testing.T) {
	for _, w := range workloads {
		g := newGen(w, 3)
		preload := map[pair]bool{}
		for _, p := range preloadPairs(w.people) {
			preload[p] = true
		}
		for i := 0; i < 20000; i++ {
			q := g.request(i)
			switch q.kind {
			case kAddContact:
				if q.a/commSize != q.b/commSize || preload[mkPair(q.a, q.b)] {
					t.Fatalf("%s: add_contact(%d, %d) leaves the free pairs of a community", w.name, q.a, q.b)
				}
			case kRemoveContact:
				p := mkPair(q.a, q.b)
				if !preload[p] || p.b-p.a == 1 || p.b-p.a == commSize-1 {
					t.Fatalf("%s: remove_contact(%d, %d) is not a chord", w.name, q.a, q.b)
				}
			}
			if q != g.request(i) {
				t.Fatalf("%s: request %d is not a function of the seed and index", w.name, i)
			}
		}
	}
}

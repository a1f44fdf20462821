package main

import (
	"fmt"
	"math"
	"sort"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
)

// removeContactHandler is the one handler the benchmark adds to the paper's
// COVID program: it deletes both directions of a contact, so every
// removal drives DRed deletion maintenance of the transitive closure.
const removeContactHandler = `
on remove_contact(a: int, b: int) {
    delete contacts(a, b)
    delete contacts(b, a)
    reply "OK"
}
`

// benchSource is the program every workload serves.
var benchSource = hlang.CovidSource + removeContactHandler

// vaccineStock is the initial vaccine_count of the COVID program.
const vaccineStock = 100

// likelihood is the covid_predict UDF the program calls; the checks
// recompute it independently as (pid%100)/100.
func likelihood(pid int64) float64 { return float64(pid%100) / 100 }

func compileProgram() (*hydrolysis.Compiled, error) {
	return hydrolysis.Compile(benchSource, hydrolysis.Options{
		UDFs: map[string]hydrolysis.UDF{
			"covid_predict": func(args []any) any { return likelihood(args[0].(int64)) },
		},
	})
}

// zipfS is the zipf exponent over person keys.
const zipfS = 1.2

// commSize is the community size. Every contact stays inside a
// community, so the transitive closure is bounded by people×commSize
// whatever the run length.
const commSize = 8

// Request kinds, in the order mixes list their weights.
const (
	kAddPerson = iota
	kAddContact
	kRemoveContact
	kTrace
	kDiagnosed
	kLikelihood
	kVaccinate
	numKinds
)

var mailboxes = [numKinds]string{"add_person", "add_contact", "remove_contact", "trace", "diagnosed", "likelihood", "vaccinate"}

var countries = []string{"us", "fr", "in", "br", "jp"}

func country(pid int64) string { return countries[pid%int64(len(countries))] }

// workload fixes everything a run's inputs depend on besides the seed.
type workload struct {
	name   string
	people int           // preloaded population, a multiple of commSize
	mix    [numKinds]int // per-mille weights, summing to 1000
	rate   float64       // open-loop offered load, requests per second
	kind   string        // "read", "durable" or "sharded"
}

var workloads = []*workload{
	{
		name: "covid-read-open", kind: "read", people: 16384, rate: 10000,
		//                 person contact remove trace diag  likeli vacc
		mix: [numKinds]int{100, 150, 0, 400, 100, 200, 50},
	},
	{
		name: "covid-write-durable", kind: "durable", people: 16384, rate: 10000,
		mix: [numKinds]int{150, 500, 2, 100, 100, 98, 50},
	},
	{
		name: "covid-write-sharded", kind: "sharded", people: 1024, rate: 150,
		mix: [numKinds]int{150, 500, 10, 95, 100, 95, 50},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix is a counter-based generator: request i's inputs are a pure
// function of (seed, i), so the stream does not depend on how many
// requests a run gets through or in what order they are drawn.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// pair is one undirected contact, stored with a < b.
type pair struct{ a, b int64 }

func mkPair(a, b int64) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Within a community of commSize members at offsets 0..7, the pairs fall
// into three disjoint classes:
//   - ring pairs (offset distance 1): preloaded, never touched by the
//     request stream, so every community stays connected;
//   - chord pairs (distance 2): preloaded, and the only targets of
//     remove_contact;
//   - free pairs (distance 3 and 4): not preloaded, the only pairs
//     add_contact inserts.
//
// Because inserts and removals never touch the same pair, the final
// contact set is the preload minus every removed chord plus every added
// free pair, whatever order the requests ran in.
func member(comm, off int64) int64 { return comm*commSize + (off+commSize)%commSize }

func ringPair(comm, k int64) pair  { return mkPair(member(comm, k), member(comm, k+1)) }
func chordPair(comm, k int64) pair { return mkPair(member(comm, k), member(comm, k+2)) }

// gen draws a workload's requests.
type gen struct {
	w    *workload
	seed uint64
	cdf  []float64 // zipf CDF over key ranks
	cum  [numKinds]int
}

func newGen(w *workload, seed int64) *gen {
	g := &gen{w: w, seed: uint64(seed)*0x2545f4914f6cdd1d + 1}
	g.cdf = make([]float64, w.people)
	total := 0.0
	for k := range g.cdf {
		total += math.Pow(float64(k+1), -zipfS)
		g.cdf[k] = total
	}
	for k := range g.cdf {
		g.cdf[k] /= total
	}
	sum := 0
	for k, m := range w.mix {
		sum += m
		g.cum[k] = sum
	}
	if sum != 1000 {
		panic(fmt.Sprintf("workload %s: mix sums to %d, want 1000", w.name, sum))
	}
	return g
}

// zipfPID draws a person: a zipf rank, scattered over the population by
// an odd multiplier (a bijection mod a power of two) so the hot keys fall
// in different communities.
func (g *gen) zipfPID(r *splitmix) int64 {
	rank := sort.SearchFloat64s(g.cdf, r.float())
	if rank >= g.w.people {
		rank = g.w.people - 1
	}
	return int64(rank*7919) % int64(g.w.people)
}

// req is one generated request.
type req struct {
	kind int
	a, b int64
}

func (q req) payload() datalog.Tuple {
	switch q.kind {
	case kAddPerson:
		return datalog.Tuple{q.a, country(q.a)}
	case kAddContact, kRemoveContact:
		return datalog.Tuple{q.a, q.b}
	default:
		return datalog.Tuple{q.a}
	}
}

// request returns request i of the stream. Kinds are dealt from a deck:
// every block of 1000 consecutive requests holds exactly the mix's
// per-mille counts, in an order shuffled per block by an affine
// permutation of the 1000 slots. Drawing kinds independently instead left
// the count of rare, expensive kinds (a serializable vaccinate is a whole
// tick; a removal is a DRed pass) to sampling noise that swamped the run
// to run spread of the sharded workload.
func (g *gen) request(i int) req {
	block := splitmix{s: g.seed ^ (uint64(i/1000)+1)*0x9fb21c651e98df25}
	mul := [...]uint64{1, 3, 7, 9, 11, 13, 17, 19, 21, 23, 27, 29, 31, 33, 37, 39}[block.intn(16)] + 40*uint64(block.intn(25))
	slot := int((mul*uint64(i%1000) + block.next()) % 1000)
	kind := 0
	for slot >= g.cum[kind] {
		kind++
	}
	r := splitmix{s: g.seed ^ (uint64(i)+1)*0xd1b54a32d192ed03}
	q := req{kind: kind}
	switch kind {
	case kAddContact:
		q.a = g.zipfPID(&r)
		q.b = member(q.a/commSize, q.a%commSize+3+int64(r.intn(3)))
	case kRemoveContact:
		// Uniform over every chord: zipf would exhaust the hot chords in
		// the first second and leave the rest of the run removing nothing.
		p := chordPair(int64(r.intn(g.w.people/commSize)), int64(r.intn(commSize)))
		q.a, q.b = p.a, p.b
	default:
		q.a = g.zipfPID(&r)
	}
	return q
}

// preloadPairs lists the preloaded undirected contacts: every ring and
// chord pair of every community.
func preloadPairs(people int) []pair {
	var out []pair
	for c := int64(0); c < int64(people/commSize); c++ {
		for k := int64(0); k < commSize; k++ {
			out = append(out, ringPair(c, k), chordPair(c, k))
		}
	}
	return out
}

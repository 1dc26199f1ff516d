package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	revalidate "repro"
	"repro/internal/wgen"
	"repro/internal/xmltree"
)

// workload is one traffic shape: the cluster it runs against, the schema
// pairs it registers, the documents it sends and the fixed rate of its
// warm-up and open-loop phases.
type workload struct {
	name string
	// nodes is the number of castd processes; with 2 they are clustered
	// with -peers and requests alternate between them.
	nodes int
	// connsPerNode is the number of client connections to each node. The
	// total, nodes × connsPerNode, never exceeds the host's CPU count.
	connsPerNode int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// items is the number of items per purchase order.
	items int
	// pool is the number of distinct documents; every invalidEvery-th one
	// (when non-zero) carries one out-of-range quantity.
	pool, invalidEvery int
	// pairs is the number of (source, target) schema pairs; pairXSD gives
	// the schema texts of pair i.
	pairs   int
	pairXSD func(i int) (src, dst string)
	// zipfS, when non-zero, draws each request's pair from a Zipf(s)
	// distribution over the pairs; otherwise every request uses pair 0.
	zipfS float64
	// compileAtSetup compiles every pair once during set-up (GET /pairs),
	// so the measured phases see a warm registry.
	compileAtSetup bool
}

var workloads = []*workload{
	{
		name: "msg-small", nodes: 1, connsPerNode: 2, rate: 3000,
		items: 5, pool: 64, pairs: 1,
		pairXSD:        func(int) (string, string) { return wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100) },
		compileAtSetup: true,
	},
	{
		name: "po-skim-500", nodes: 1, connsPerNode: 2, rate: 1000,
		items: 500, pool: 20, pairs: 1,
		pairXSD:        func(int) (string, string) { return wgen.Figure2XSD(true, 100), wgen.Figure2XSD(false, 100) },
		compileAtSetup: true,
	},
	{
		name: "po-facet-500", nodes: 1, connsPerNode: 2, rate: 600,
		items: 500, pool: 20, invalidEvery: 10, pairs: 1,
		pairXSD:        func(int) (string, string) { return wgen.Figure2XSD(false, 200), wgen.Figure2XSD(false, 100) },
		compileAtSetup: true,
	},
	{
		name: "pair-churn-2node", nodes: 2, connsPerNode: 1, rate: 300,
		items: 5, pool: 64, pairs: 160, zipfS: 1.1,
		pairXSD: func(i int) (string, string) {
			return wgen.Figure2XSD(true, 300+i), wgen.Figure2XSD(false, 100+i)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// srcID and dstID are the schema ids pair i is registered under.
func srcID(i int) string { return "s" + strconv.Itoa(i) }
func dstID(i int) string { return "t" + strconv.Itoa(i) }

// doc is one generated document with its expected verdict.
type doc struct {
	body  []byte
	valid bool
}

// inputs are everything a run sends, derived from the workload and the
// seed alone.
type inputs struct {
	docs     []doc
	src, dst []string // schema texts per pair
	// caster is pair 0's streaming caster, built in this process for the
	// layer replays.
	caster *revalidate.StreamCaster
	// plans hold the (document, pair) of each request, per phase.
	plans [numPhases][]reqSpec
}

type reqSpec struct{ doc, pair int32 }

// Phases of one run. Each gets its own request plan so that the
// fixed-rate phase sends the same requests whatever the warm-up did.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
	numPhases
)

// planLen is the length of a request plan; longer phases cycle through it.
const planLen = 1 << 16

func (in *inputs) spec(phase, i int) reqSpec { return in.plans[phase][i%planLen] }

// generate builds the workload's documents and request plans from seed
// and takes each document's expected verdict from the tree validator
// (Schema.ValidateFull, the paper's §3 semantics). It fails if a verdict
// disagrees with how the document was built, or if a document is not
// valid under its source schema, since a cast assumes that it is.
func generate(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	u := revalidate.NewUniverse()
	var srcs, dsts []*revalidate.Schema
	for i := 0; i < w.pairs; i++ {
		s, d := w.pairXSD(i)
		in.src, in.dst = append(in.src, s), append(in.dst, d)
		ss, err := u.LoadXSDString(s)
		if err != nil {
			return nil, fmt.Errorf("%s: source schema %d: %w", w.name, i, err)
		}
		ds, err := u.LoadXSDString(d)
		if err != nil {
			return nil, fmt.Errorf("%s: target schema %d: %w", w.name, i, err)
		}
		srcs, dsts = append(srcs, ss), append(dsts, ds)
	}
	caster, err := revalidate.NewStreamCaster(srcs[0], dsts[0])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	in.caster = caster

	for k := 0; k < w.pool; k++ {
		tree := wgen.PODocument(wgen.PODocOptions{Items: w.items, IncludeBillTo: true, Seed: rng.Int63()})
		valid := w.invalidEvery == 0 || k%w.invalidEvery != w.invalidEvery-1
		if !valid {
			// One quantity in [100,199] at an item in the middle half of the
			// document: valid under the source facet (< 200), a reject under
			// the target facet (< 100) found mid-document.
			item := w.items/4 + rng.Intn(w.items/2)
			setQuantity(tree, item, 100+rng.Intn(100))
		}
		body := wgen.POXMLBytes(tree)
		parsed, err := revalidate.ParseDocument(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s: document %d: %w", w.name, k, err)
		}
		for i := range srcs {
			if _, err := srcs[i].ValidateFull(parsed); err != nil {
				return nil, fmt.Errorf("%s: document %d is not valid under source schema %d: %w", w.name, k, i, err)
			}
			if _, err := dsts[i].ValidateFull(parsed); (err == nil) != valid {
				return nil, fmt.Errorf("%s: document %d was built valid=%v but the oracle says %v under target schema %d",
					w.name, k, valid, err, i)
			}
		}
		in.docs = append(in.docs, doc{body: body, valid: valid})
	}

	for phase := range in.plans {
		prng := rand.New(rand.NewSource(seed*numPhases + int64(phase)))
		var zipf *rand.Zipf
		if w.zipfS > 0 {
			zipf = rand.NewZipf(prng, w.zipfS, 1, uint64(w.pairs-1))
		}
		plan := make([]reqSpec, 0, planLen)
		for len(plan) < planLen {
			// Whole permutations of the pool, so every document gets the
			// same share of the traffic (and po-facet-500 exactly 10 %
			// rejects) whatever the seed.
			for _, d := range prng.Perm(w.pool) {
				s := reqSpec{doc: int32(d)}
				if zipf != nil {
					s.pair = int32(zipf.Uint64())
				}
				plan = append(plan, s)
			}
		}
		in.plans[phase] = plan[:planLen]
	}
	return in, nil
}

// setQuantity overwrites the quantity of item k of a generated purchase
// order: purchaseOrder(shipTo, billTo, items(item(productName, quantity, …)*)).
func setQuantity(po *xmltree.Node, k, q int) {
	items := po.Children[len(po.Children)-1]
	quantity := items.Children[k].Children[1]
	quantity.Children[0].Text = strconv.Itoa(q)
}

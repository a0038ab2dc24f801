package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/pagefile"
	"repro/internal/updf"
	"repro/internal/workload"
	"repro/uncertain"
)

// inputs are everything a workload feeds the index, made from the seed.
type inputs struct {
	dim     int
	initial map[int64]uncertain.PDF // bulk-loaded at setup
	// pool holds the objects the write stream inserts, in order; insert n
	// uses pool[n % len(pool)] under a fresh ID. poolBytes is each one's
	// encoded size plus its 8-byte ID, the user bytes a write carries.
	pool      []uncertain.PDF
	poolBytes []int
	ranges    []uncertain.RangeQuery // cycled by the read clients
	nns       []uncertain.Point      // NN query points, cycled
}

// datasetSeed is the dataset generators' default seed. The generators
// stand in for the paper's fixed LB and CA point sets, and the paper runs
// fixed query workloads over them, so every run indexes the same objects,
// holds back the same ones for its write stream and draws from the same
// queries. The run's seed orders the inserts and the queries and picks the
// deletes; a run's figures then differ from another seed's by measurement
// noise, not by which dense or sparse regions a sample happened to hit.
const datasetSeed = 42

// writePoolSize is the number of objects a concurrent writer's stream can
// insert; longer streams reuse them under fresh IDs.
const writePoolSize = 2048

// makeInputs generates a workload's objects and queries from seed, using
// only the repository's dataset and query generators.
func makeInputs(p params, seed int64) (inputs, error) {
	name := dataset.Name(p.Dataset)
	if name != dataset.LB && name != dataset.CA {
		return inputs{}, fmt.Errorf("unsupported dataset %q", p.Dataset)
	}
	var all []uncertain.PDF
	switch p.PDFs {
	case "mixed":
		rng := rand.New(rand.NewSource(datasetSeed))
		for i, c := range dataset.Points(dataset.Config{Name: name, Scale: p.Scale, Seed: datasetSeed}) {
			all = append(all, mixedPDF(i, c, rng))
		}
	default:
		for _, o := range dataset.Generate(dataset.Config{Name: name, Scale: p.Scale, Seed: datasetSeed}) {
			all = append(all, o.PDF)
		}
	}
	// A burst inserts half its writes; a concurrent writer draws on a
	// fixed pool. The generators emit objects in random order, so the
	// dataset's tail is a random sample to hold back.
	held := p.WriteBurst / 2
	if p.ConcurrentWriter {
		held = writePoolSize
	}
	if held >= len(all) {
		return inputs{}, fmt.Errorf("dataset of %d objects cannot hold back %d", len(all), held)
	}
	in := inputs{dim: name.Dim(), initial: make(map[int64]uncertain.PDF)}
	var centers []uncertain.Point
	for i, pdf := range all[:len(all)-held] {
		in.initial[int64(i)] = pdf
		centers = append(centers, pdf.Center())
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(held) {
		in.pool = append(in.pool, all[len(all)-held+k])
	}
	for _, pdf := range in.pool {
		b, err := updf.Encode(pdf)
		if err != nil {
			return inputs{}, fmt.Errorf("encode pool pdf: %w", err)
		}
		in.poolBytes = append(in.poolBytes, len(b)+8)
	}

	in.ranges, in.nns = queries(p, centers)
	rng.Shuffle(len(in.ranges), func(i, j int) { in.ranges[i], in.ranges[j] = in.ranges[j], in.ranges[i] })
	rng.Shuffle(len(in.nns), func(i, j int) { in.nns[i], in.nns[j] = in.nns[j], in.nns[i] })
	return in, nil
}

// queries makes the workload's fixed query sets: the paper's 100 queries
// per (qs, pq) pair and 100 NN points, all centred on data objects.
func queries(p params, centers []uncertain.Point) ([]uncertain.RangeQuery, []uncertain.Point) {
	const n = workload.DefaultQueries
	var ranges []uncertain.RangeQuery
	for _, qs := range querySides {
		for _, pq := range p.PQ {
			w := workload.New(workload.Config{
				QS: qs, PQ: pq, Count: n, Domain: dataset.Domain,
				Seed: datasetSeed + int64(len(ranges)), Centers: centers,
			})
			for _, q := range w.Queries {
				ranges = append(ranges, uncertain.RangeQuery{Rect: q.Rect, Prob: q.Prob})
			}
		}
	}
	rng := rand.New(rand.NewSource(datasetSeed))
	nns := make([]uncertain.Point, n)
	for i := range nns {
		nns[i] = centers[rng.Intn(len(centers))]
	}
	return ranges, nns
}

// mixedPDF cycles the three pdf families of the write workload: uniform
// circle, Con-Gau and a 4×4 histogram with random cell weights, each over
// the paper's radius-250 region around c.
func mixedPDF(i int, c uncertain.Point, rng *rand.Rand) uncertain.PDF {
	const r = 250.0
	switch i % 3 {
	case 0:
		return uncertain.UniformCircle(c, r)
	case 1:
		return uncertain.ConstrainedGaussian(c, r, r/2)
	default:
		w := make([]float64, 16)
		for k := range w {
			w[k] = 0.5 + rng.Float64()
		}
		lo := uncertain.Pt(c[0]-r, c[1]-r)
		hi := uncertain.Pt(c[0]+r, c[1]+r)
		return uncertain.Histogram(uncertain.Box(lo, hi), []int{4, 4}, w)
	}
}

// openIndex builds workload p's empty index under dir. It is the only
// function that names a concrete index type; the rest of the benchmark
// drives the result through uncertain.Index. Latency, caches, prefetch and
// group commit are all set here, at open time.
func openIndex(p params, dim int, dir string, wrap func(pagefile.Store) pagefile.Store) (uncertain.Index, error) {
	cfg := uncertain.Config{
		Dimensions:           dim,
		BufferPages:          p.BufferPages,
		NodeCacheEntries:     p.NodeCacheEntries,
		SimulatedPageLatency: p.pageLatency(),
		PrefetchWorkers:      p.PrefetchWorkers,
		MonteCarloSamples:    p.MCSamples,
		ExactRefinement:      p.ExactRefinement,
		AdaptivePlanning:     p.AdaptivePlanning,
		ProbFilter:           true,
		GroupCommitOps:       p.GroupCommitOps,
		ReclaimInterval:      p.reclaimInterval(),
		WrapStore:            wrap,
	}
	if p.FileBacked {
		cfg.Path = filepath.Join(dir, "index")
	}
	switch p.Index {
	case "concurrent":
		t, err := uncertain.NewConcurrentTree(cfg)
		if err != nil {
			return nil, err
		}
		return t, nil
	case "spatial_sharded":
		domain := uncertain.Box(uncertain.Pt(0, 0), uncertain.Pt(dataset.Domain, dataset.Domain))
		t, err := uncertain.NewSpatialShardedTree(p.Shards, cfg, domain)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown index kind %q", p.Index)
}

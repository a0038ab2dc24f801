package uncertain

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// This file is the intra-query pipelining correctness contract: with any
// prefetch fan-out, every query must return byte-for-byte what the serial
// path returns — IDs, probabilities (Monte Carlo included: the pipelined
// path consumes the per-query-seeded refinement sampler in the identical
// order), validated flags, NN distances — on memory and file-backed
// stores, at 1/2/4 shards, and under a live writer stream. Run with -race:
// the prefetcher's fetch goroutines touch the buffer pool and store
// concurrently.

// pipelineSearchAll runs every query (with the given per-query options,
// e.g. WithPrefetchWorkers) and returns raw (unsorted) results — order is
// part of the byte-identical contract for a single index.
func pipelineSearchAll(t *testing.T, idx Index, queries []RangeQuery, opts ...QueryOption) [][]Result {
	t.Helper()
	out := make([][]Result, len(queries))
	for i, q := range queries {
		res, stats, err := idx.Search(context.Background(), q.Rect, q.Prob, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(res) {
			t.Fatalf("query %d: stats.Results = %d, len = %d", i, stats.Results, len(res))
		}
		out[i] = res
	}
	return out
}

func requireSameResults(t *testing.T, label string, want, got [][]Result) {
	t.Helper()
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s query %d: %d results, serial %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s query %d result %d: %+v, serial %+v",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestPipelinedRangeEquivalence compares the serial and pipelined range
// paths on one Tree, Monte Carlo refinement (the strictest
// check: any reordering of sampler consumption would change
// probabilities), memory and file-backed stores.
func TestPipelinedRangeEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(600, 11)
	queries := shardedFixtureQueries(60, 12)

	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Dimensions: 2, MonteCarloSamples: 400, Seed: 7, BufferPages: 32}
			if backend == "file" {
				cfg.Path = filepath.Join(t.TempDir(), "pipe.utree")
			}
			ct, err := NewTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ct.Close()
			if err := ct.BulkLoad(objects); err != nil {
				t.Fatal(err)
			}

			want := pipelineSearchAll(t, ct, queries)
			nonEmpty, refined := 0, 0
			for _, w := range want {
				if len(w) > 0 {
					nonEmpty++
				}
				for _, r := range w {
					if !r.Validated {
						refined++
					}
				}
			}
			if nonEmpty == 0 || refined == 0 {
				t.Fatalf("degenerate workload: %d non-empty queries, %d refined results", nonEmpty, refined)
			}

			for _, w := range []int{1, 2, 4, 8} {
				got := pipelineSearchAll(t, ct, queries, WithPrefetchWorkers(w))
				requireSameResults(t, fmt.Sprintf("prefetch=%d", w), want, got)

				// Deterministic RO seeding: repeating a query with prefetch
				// on must reproduce its own Monte Carlo probabilities.
				again := pipelineSearchAll(t, ct, queries, WithPrefetchWorkers(w))
				requireSameResults(t, fmt.Sprintf("prefetch=%d repeat", w), got, again)
			}
			got := pipelineSearchAll(t, ct, queries, WithPrefetchWorkers(0))
			requireSameResults(t, "prefetch disarmed", want, got)
		})
	}
}

// TestPipelinedStatsParity checks the logical cost counters are unchanged
// by pipelining (only wall time and the prefetch counters may differ).
func TestPipelinedStatsParity(t *testing.T) {
	objects := shardedFixtureObjects(500, 21)
	queries := shardedFixtureQueries(40, 22)
	ct, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}

	serial := make([]Stats, len(queries))
	for i, q := range queries {
		_, serial[i], err = ct.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
	}
	issued := 0
	for i, q := range queries {
		_, st, err := ct.Search(context.Background(), q.Rect, q.Prob, WithPrefetchWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		issued += st.PrefetchIssued
		if st.PrefetchWasted != 0 {
			t.Fatalf("query %d: range prefetch wasted %d pages (range queries claim every prefetch)", i, st.PrefetchWasted)
		}
		st.PrefetchIssued, st.PrefetchCoalesced, st.PrefetchWasted = 0, 0, 0
		// Node-cache outcomes depend on cache warmth (the serial pass ran
		// cold, this pass runs hot), not on pipelining — but the total
		// node reads they split must match the logical node accesses.
		if st.NodeCacheHits+st.NodeCacheMisses != serial[i].NodeCacheHits+serial[i].NodeCacheMisses {
			t.Fatalf("query %d: pipelined cache lookups %d+%d, serial %d+%d",
				i, st.NodeCacheHits, st.NodeCacheMisses, serial[i].NodeCacheHits, serial[i].NodeCacheMisses)
		}
		st.NodeCacheHits, st.NodeCacheMisses = serial[i].NodeCacheHits, serial[i].NodeCacheMisses
		st.FilterTime, st.RefineTime = serial[i].FilterTime, serial[i].RefineTime
		if st != serial[i] {
			t.Fatalf("query %d: pipelined stats %+v, serial %+v", i, st, serial[i])
		}
	}
	if issued == 0 {
		t.Fatal("prefetch armed but no prefetches issued over the workload")
	}
}

// TestPipelinedShardedEquivalence: pipelined sharded scatter-gather must
// match the serial single tree byte-for-byte (exact refinement, ID-sorted
// merge contract).
func TestPipelinedShardedEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(600, 31)
	queries := shardedFixtureQueries(50, 32)

	single, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := single.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortByID(res)
	}

	for _, shards := range []int{1, 2, 4} {
		st, err := NewShardedTree(shards, Config{
			Dimensions: 2, ExactRefinement: true, PrefetchWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.BulkLoad(objects); err != nil {
			t.Fatal(err)
		}
		got := pipelineSearchAll(t, st, queries)
		requireSameResults(t, fmt.Sprintf("shards=%d", shards), want, got)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedNNEquivalence compares serial and pipelined NN traversals
// (speculative prefetch must never change the k results or their
// expected distances).
func TestPipelinedNNEquivalence(t *testing.T) {
	objects := shardedFixtureObjects(500, 41)
	ct, err := NewTree(Config{Dimensions: 2, MonteCarloSamples: 300, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.BulkLoad(objects); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	points := make([]Point, 25)
	for i := range points {
		points[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
	}

	type nnAnswer struct {
		res []Neighbor
	}
	var want []nnAnswer
	for _, p := range points {
		for _, k := range []int{1, 5, 10} {
			res, _, err := ct.NearestNeighbors(context.Background(), p, k)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, nnAnswer{res})
		}
	}

	for _, w := range []int{2, 8} {
		i := 0
		for _, p := range points {
			for _, k := range []int{1, 5, 10} {
				res, stats, err := ct.NearestNeighbors(context.Background(), p, k, WithPrefetchWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != len(want[i].res) {
					t.Fatalf("prefetch=%d point %v k=%d: %d results, serial %d",
						w, p, k, len(res), len(want[i].res))
				}
				for j := range res {
					if res[j] != want[i].res[j] {
						t.Fatalf("prefetch=%d point %v k=%d result %d: %+v, serial %+v",
							w, p, k, j, res[j], want[i].res[j])
					}
				}
				if stats.PrefetchIssued == 0 && stats.NodeAccesses > 2 {
					t.Fatalf("prefetch=%d point %v k=%d: multi-node NN issued no prefetches", w, p, k)
				}
				i++
			}
		}
	}
}

// TestPipelinedSearchUnderWriter runs pipelined searches concurrently with
// a writer stream on memory- and file-backed trees (1 and 2 shards): the
// prefetcher's fetch goroutines must stay inside the readers-writer
// exclusion (run with -race), and the index must stay sound. Afterwards,
// with the writer quiesced, pipelined results must again match serial.
func TestPipelinedSearchUnderWriter(t *testing.T) {
	objects := shardedFixtureObjects(400, 51)
	queries := shardedFixtureQueries(30, 52)

	for _, tc := range []struct {
		name   string
		shards int
		file   bool
	}{
		{"mem-1shard", 1, false},
		{"mem-2shards", 2, false},
		{"file-2shards", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dimensions: 2, ExactRefinement: true, PrefetchWorkers: 4, BufferPages: 32}
			if tc.file {
				cfg.Path = filepath.Join(t.TempDir(), "pipe.utree")
			}
			var idx Index
			var err error
			if tc.shards == 1 {
				idx, err = NewTree(cfg)
			} else {
				idx, err = NewShardedTree(tc.shards, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if err := idx.BulkLoad(objects); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var writerErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(99))
				for id := int64(10_000_000); ; id++ {
					select {
					case <-stop:
						return
					default:
					}
					c := Pt(rng.Float64()*1000, rng.Float64()*1000)
					if err := idx.Insert(id, UniformCircle(c, 10)); err != nil {
						writerErr = err
						return
					}
					if id%3 == 0 {
						if err := idx.Delete(id); err != nil {
							writerErr = err
							return
						}
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			var searchWG sync.WaitGroup
			for g := 0; g < 4; g++ {
				searchWG.Add(1)
				go func(g int) {
					defer searchWG.Done()
					for pass := 0; pass < 3; pass++ {
						for i, q := range queries {
							if (i+pass)%4 != g {
								continue
							}
							if _, _, err := idx.Search(context.Background(), q.Rect, q.Prob); err != nil {
								t.Errorf("goroutine %d: %v", g, err)
								return
							}
						}
					}
				}(g)
			}
			searchWG.Wait()
			close(stop)
			wg.Wait()
			if writerErr != nil {
				t.Fatalf("writer: %v", writerErr)
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("invariants after mixed load: %v", err)
			}

			// Quiesced: pipelined vs serial on the mutated index.
			serialWant := pipelineSearchAll(t, idx, queries, WithPrefetchWorkers(0))
			got := pipelineSearchAll(t, idx, queries, WithPrefetchWorkers(4))
			requireSameResults(t, tc.name+" quiesced", serialWant, got)
		})
	}
}

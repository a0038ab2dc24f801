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

func TestConcurrentTreeParallelMixedOps(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	// Seed with a base population.
	for i := int64(0); i < 200; i++ {
		if err := ct.Insert(i, UniformCircle(Pt(float64(i%20)*50, float64(i/20)*50), 8)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(1000 + w*1000)
			for i := 0; i < 60; i++ {
				id := base + int64(i)
				if err := ct.Insert(id, UniformCircle(
					Pt(rng.Float64()*1000, rng.Float64()*1000), 8)); err != nil {
					errs <- fmt.Errorf("worker %d insert: %w", w, err)
					return
				}
				if _, _, err := ct.Search(context.Background(), Box(Pt(0, 0), Pt(500, 500)), 0.5); err != nil {
					errs <- fmt.Errorf("worker %d search: %w", w, err)
					return
				}
				if i%3 == 0 {
					if err := ct.Delete(id); err != nil {
						errs <- fmt.Errorf("worker %d delete: %w", w, err)
						return
					}
				}
				if i%7 == 0 {
					if _, _, err := ct.NearestNeighbors(context.Background(), Pt(rng.Float64()*1000, rng.Float64()*1000), 3); err != nil {
						errs <- fmt.Errorf("worker %d nn: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 200 base + 8 workers × 60 inserts − 8 × 20 deletes.
	want := 200 + workers*60 - workers*20
	if got := ct.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatalf("tree invariants violated after mixed ops: %v", err)
	}
}

func TestConcurrentTreeConfigError(t *testing.T) {
	if _, err := NewTree(Config{}); err == nil {
		t.Fatal("zero dimensions accepted")
	}
}

// TestSearchWhileInsertStress runs a writer inserting continuously while
// many readers search and take NN queries in parallel (readers share the
// RLock; run with -race). Reader results must always be internally
// consistent: every reported probability meets the threshold.
func TestSearchWhileInsertStress(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	for i := int64(0); i < 300; i++ {
		if err := ct.Insert(i, UniformCircle(Pt(float64(i%20)*50, float64(i/20)*50), 8)); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 8
	const searchesPerReader = 150
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var readerWG, writerWG sync.WaitGroup

	// One writer mutating the tree until the readers finish.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(99))
		for id := int64(10000); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ct.Insert(id, UniformCircle(
				Pt(rng.Float64()*1000, rng.Float64()*1000), 8)); err != nil {
				errs <- fmt.Errorf("writer insert: %w", err)
				return
			}
			if id%4 == 0 {
				if err := ct.Delete(id); err != nil {
					errs <- fmt.Errorf("writer delete: %w", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < searchesPerReader; i++ {
				cx, cy := rng.Float64()*1000, rng.Float64()*1000
				res, _, err := ct.Search(context.Background(), Box(Pt(cx-100, cy-100), Pt(cx+100, cy+100)), 0.5)
				if err != nil {
					errs <- fmt.Errorf("reader %d search: %w", r, err)
					return
				}
				for _, item := range res {
					if !item.Validated && item.Prob < 0.5 {
						errs <- fmt.Errorf("reader %d: result %d below threshold (p=%g)", r, item.ID, item.Prob)
						return
					}
				}
				if i%10 == 0 {
					if _, _, err := ct.NearestNeighbors(context.Background(), Pt(cx, cy), 3); err != nil {
						errs <- fmt.Errorf("reader %d nn: %w", r, err)
						return
					}
				}
			}
		}(r)
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatalf("tree invariants violated after stress: %v", err)
	}
}

// TestSearchBatchMatchesSerial checks the batch engine is a pure
// parallelization: with exact refinement, SearchBatch must return exactly
// what serial Search returns for every query.
func TestSearchBatchMatchesSerial(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 500; i++ {
		if err := ct.Insert(i, UniformCircle(
			Pt(rng.Float64()*1000, rng.Float64()*1000), 5+rng.Float64()*10)); err != nil {
			t.Fatal(err)
		}
	}

	queries := make([]RangeQuery, 64)
	for i := range queries {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		half := 40 + rng.Float64()*120
		queries[i] = RangeQuery{
			Rect: Box(Pt(cx-half, cy-half), Pt(cx+half, cy+half)),
			Prob: 0.1 + 0.8*rng.Float64(),
		}
	}

	serial := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := ct.Search(context.Background(), q.Rect, q.Prob)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	eng := NewQueryEngine(ct, EngineOptions{Workers: 4})
	batch, stats, err := eng.SearchBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != len(queries) || stats.Workers != 4 {
		t.Fatalf("stats = %+v, want %d queries on 4 workers", stats, len(queries))
	}
	nonEmpty := 0
	for i := range queries {
		if !sameResults(serial[i], batch[i]) {
			t.Fatalf("query %d: batch %v != serial %v", i, batch[i], serial[i])
		}
		if len(serial[i]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("degenerate workload: every query returned nothing")
	}
}

// sameResults compares result sets order-insensitively (worker scheduling
// does not perturb per-query order, but keep the test honest about what the
// engine guarantees: the same set with the same probabilities).
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[int64]Result, len(a))
	for _, r := range a {
		am[r.ID] = r
	}
	for _, r := range b {
		o, ok := am[r.ID]
		if !ok || o.Prob != r.Prob || o.Validated != r.Validated {
			return false
		}
	}
	return true
}

// TestNNBatchMatchesSerial does the same for the k-NN batch path (NN
// refinement is deterministic by construction: per-object seeded samplers).
func TestNNBatchMatchesSerial(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < 300; i++ {
		if err := ct.Insert(i, UniformCircle(
			Pt(rng.Float64()*1000, rng.Float64()*1000), 10)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]NNQuery, 32)
	for i := range queries {
		queries[i] = NNQuery{Point: Pt(rng.Float64()*1000, rng.Float64()*1000), K: 5}
	}
	serial := make([][]Neighbor, len(queries))
	for i, q := range queries {
		res, _, err := ct.NearestNeighbors(context.Background(), q.Point, q.K)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	eng := NewQueryEngine(ct, EngineOptions{})
	batch, stats, err := eng.NNBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if len(batch[i]) != len(serial[i]) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(batch[i]), len(serial[i]))
		}
		for j := range batch[i] {
			if batch[i][j] != serial[i][j] {
				t.Fatalf("query %d neighbor %d: %+v != %+v", i, j, batch[i][j], serial[i][j])
			}
		}
	}
	if stats.ProbComputations == 0 || stats.NodeAccesses == 0 {
		t.Fatalf("stats not aggregated: %+v", stats)
	}
}

// TestSearchBatchPropagatesError: an invalid query in the batch must surface
// as an error, not a partial result set.
func TestSearchBatchPropagatesError(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.Insert(1, UniformCircle(Pt(10, 10), 5)); err != nil {
		t.Fatal(err)
	}
	queries := []RangeQuery{
		{Rect: Box(Pt(0, 0), Pt(100, 100)), Prob: 0.5},
		{Rect: Box(Pt(0, 0), Pt(100, 100)), Prob: 1.5}, // invalid threshold
	}
	eng := NewQueryEngine(ct, EngineOptions{Workers: 2})
	if _, _, err := eng.SearchBatch(context.Background(), queries); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// TestSearchBatchEmpty: a zero-length batch is a no-op, not a hang.
func TestSearchBatchEmpty(t *testing.T) {
	ct, err := NewTree(Config{Dimensions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	eng := NewQueryEngine(ct, EngineOptions{})
	out, stats, err := eng.SearchBatch(context.Background(), nil)
	if err != nil || len(out) != 0 || stats.Queries != 0 {
		t.Fatalf("out=%v stats=%+v err=%v", out, stats, err)
	}
}

// TestReopenedTreeServesEngineUnderWriter reopens a file-backed index with
// OpenTree — group commit on, so the deadline timer runs too — and drives
// it with a four-worker QueryEngine (range and NN batches) while one
// goroutine inserts and deletes. Run with -race: every tree OpenTree
// returns must be safe to share across goroutines. Afterwards the
// committed structure must be valid and no query may have leaked a pin.
func TestReopenedTreeServesEngineUnderWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.utree")
	cfg := Config{Dimensions: 2, Path: path, MonteCarloSamples: 200, BufferPages: 16,
		GroupCommitOps: 4, GroupCommitInterval: 5 * time.Millisecond}
	built, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BulkLoad(shardedFixtureObjects(300, 17)); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := OpenTree(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	rng := rand.New(rand.NewSource(23))
	ranges := make([]RangeQuery, 16)
	nns := make([]NNQuery, 16)
	for i := range ranges {
		x, y := rng.Float64()*900, rng.Float64()*900
		ranges[i] = RangeQuery{Rect: Box(Pt(x, y), Pt(x+100, y+100)), Prob: 0.3 + 0.4*rng.Float64()}
		nns[i] = NNQuery{Point: Pt(x, y), K: 3}
	}

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		wrng := rand.New(rand.NewSource(29))
		for id := int64(10000); ; id++ {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			if err := tree.Insert(id, UniformCircle(Pt(wrng.Float64()*1000, wrng.Float64()*1000), 8)); err != nil {
				writerErr <- fmt.Errorf("insert %d: %w", id, err)
				return
			}
			if id%2 == 0 {
				if err := tree.Delete(id); err != nil {
					writerErr <- fmt.Errorf("delete %d: %w", id, err)
					return
				}
			}
		}
	}()

	eng := NewQueryEngine(tree, EngineOptions{Workers: 4})
	for round := 0; round < 3; round++ {
		if _, _, err := eng.SearchBatch(context.Background(), ranges); err != nil {
			t.Fatalf("round %d SearchBatch: %v", round, err)
		}
		if _, _, err := eng.NNBatch(context.Background(), nns); err != nil {
			t.Fatalf("round %d NNBatch: %v", round, err)
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after engine + writer: %v", err)
	}
	if pins := tree.GCInfo().Pins; pins != 0 {
		t.Fatalf("%d snapshot pins leaked", pins)
	}
}

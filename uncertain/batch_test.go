package uncertain

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Tests of the group-commit write path: size/age auto-grouping, the
// explicit WriteBatch epoch, snapshot isolation across a batch boundary,
// rollback of grouped mutations, per-shard batches, and the background
// reclaimer's pin safety under -race.

func batchPDF(rng *rand.Rand) PDF {
	return UniformCircle(Pt(rng.Float64()*1000, rng.Float64()*1000), 10)
}

func TestGroupCommitSizeThreshold(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, GroupCommitOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(1))
	epoch0 := tree.Epoch()

	for i := int64(0); i < 7; i++ {
		if err := tree.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tree.inner.CommittedLen(); got != 0 {
		t.Fatalf("7 grouped inserts already visible: CommittedLen=%d, want 0", got)
	}
	if tree.Epoch() != epoch0 {
		t.Fatalf("epoch advanced mid-group: %d -> %d", epoch0, tree.Epoch())
	}
	// The 8th op reaches GroupCommitOps and publishes the whole group.
	if err := tree.Insert(7, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	if got := tree.inner.CommittedLen(); got != 8 {
		t.Fatalf("after group commit: CommittedLen=%d, want 8", got)
	}
	if tree.Epoch() != epoch0+1 {
		t.Fatalf("group committed %d epochs, want exactly 1", tree.Epoch()-epoch0)
	}
}

func TestGroupCommitAgeDeadline(t *testing.T) {
	const interval = 250 * time.Millisecond
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, GroupCommitInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(2))
	epoch0 := tree.Epoch()

	// waitSealed polls until the timer publishes the open group and checks
	// that it waited for the group to age past the interval.
	waitSealed := func(opened time.Time, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for tree.inner.CommittedLen() != want {
			if time.Now().After(deadline) {
				t.Fatalf("aged group never sealed: CommittedLen=%d, want %d", tree.inner.CommittedLen(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if age := time.Since(opened); age < interval {
			t.Fatalf("group sealed after %v, before the %v deadline", age, interval)
		}
	}

	// The timer owns the deadline: each group stays open while young and
	// is sealed alone, as one epoch, once it ages past the interval.
	for i := int64(1); i <= 2; i++ {
		opened := time.Now()
		if err := tree.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
		if got := tree.inner.CommittedLen(); got != int(i-1) {
			t.Fatalf("young group already committed: CommittedLen=%d, want %d", got, i-1)
		}
		waitSealed(opened, int(i))
		if got := tree.Epoch() - epoch0; got != uint64(i) {
			t.Fatalf("after group %d: %d epochs committed, want %d", i, got, i)
		}
	}
}

func TestConcurrentGroupTimerSealsIdleTail(t *testing.T) {
	c, err := NewTree(Config{Dimensions: 2, ExactRefinement: true,
		GroupCommitOps: 100, GroupCommitInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 3; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// No further mutations arrive; only the deadline timer can seal the
	// 3-op tail.
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("idle group tail not sealed by timer: Len=%d, want 3", c.Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWriteBatchSnapshotIsolation(t *testing.T) {
	c, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(4))
	for i := int64(0); i < 2; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}

	midBatch := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		<-midBatch
		// Mid-batch, lock-free readers must see exactly the pre-batch
		// epoch: 2 objects, valid structure.
		snap := c.Snapshot()
		defer snap.Close()
		if n := snap.Len(); n != 2 {
			readerDone <- fmt.Errorf("mid-batch snapshot Len=%d, want 2 (saw a batch prefix)", n)
			return
		}
		if n := c.Len(); n != 2 {
			readerDone <- fmt.Errorf("mid-batch Len=%d, want 2", n)
			return
		}
		readerDone <- snap.CheckInvariants()
	}()

	err = c.WriteBatch(func(w BatchWriter) error {
		for i := int64(10); i < 15; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		if err := w.Delete(0); err != nil {
			return err
		}
		close(midBatch)
		return <-readerDone // reader asserts while the batch is open
	})
	if err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if n := c.Len(); n != 6 {
		t.Fatalf("post-batch Len=%d, want 6 (2 - 1 + 5)", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatchRollback(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	if err := tree.Insert(1, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}
	epoch0 := tree.Epoch()

	boom := errors.New("boom")
	err = tree.WriteBatch(func(w BatchWriter) error {
		for i := int64(20); i < 23; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		if err := w.Delete(1); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteBatch error = %v, want %v", err, boom)
	}
	if tree.Epoch() != epoch0 {
		t.Fatalf("failed batch advanced the epoch: %d -> %d", epoch0, tree.Epoch())
	}
	if n := tree.Len(); n != 1 {
		t.Fatalf("failed batch left Len=%d, want 1", n)
	}
	// The pdfs bookkeeping must roll back with the index: id 1 is still
	// deletable by bare ID, the batch's inserts are not.
	if err := tree.Delete(20); err == nil {
		t.Fatal("rolled-back insert still tracked in pdfs map")
	}
	if err := tree.Delete(1); err != nil {
		t.Fatalf("pre-batch object lost its pdfs tracking: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Batches do not nest.
	err = tree.WriteBatch(func(BatchWriter) error {
		return tree.WriteBatch(func(BatchWriter) error { return nil })
	})
	if err == nil {
		t.Fatal("nested WriteBatch accepted")
	}
}

// TestWriteBatchCallsFromFn checks that fn's own calls into the tree never
// wait for the writer mutex its batch holds: a direct mutation joins the
// batch, while Close and a nested WriteBatch are refused. A writer on
// another goroutine waits for the batch instead.
func TestWriteBatchCallsFromFn(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	epoch0 := tree.Epoch()

	other := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		done <- tree.WriteBatch(func(w BatchWriter) error {
			if err := w.Insert(1, batchPDF(rng)); err != nil {
				return err
			}
			if err := tree.Insert(2, batchPDF(rng)); err != nil {
				return err
			}
			if h := tree.Height(); h < 1 {
				return fmt.Errorf("Height inside batch = %d", h)
			}
			if err := tree.Close(); err == nil {
				return errors.New("Close inside WriteBatch accepted")
			}
			if err := tree.WriteBatch(func(BatchWriter) error { return nil }); err == nil {
				return errors.New("nested WriteBatch accepted")
			}
			go func() { other <- tree.Insert(3, batchPDF(rand.New(rand.NewSource(7)))) }()
			time.Sleep(20 * time.Millisecond)
			if n := tree.inner.CommittedLen(); n != 0 {
				return fmt.Errorf("batch visible before commit: CommittedLen=%d", n)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WriteBatch fn deadlocked on its own tree")
	}
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	// One epoch for the batch (direct insert included), one for the
	// writer that waited.
	if got := tree.Epoch() - epoch0; got != 2 {
		t.Fatalf("%d epochs committed, want 2", got)
	}
	if n := tree.Len(); n != 3 {
		t.Fatalf("Len=%d, want 3 (2 from the batch, 1 from the waiting writer)", n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedWriteBatchAndGCInfo(t *testing.T) {
	s, err := NewShardedTree(4, Config{Dimensions: 2, ExactRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	if err := s.Insert(500, batchPDF(rng)); err != nil {
		t.Fatal(err)
	}

	const n = 64
	err = s.WriteBatch(func(w BatchWriter) error {
		for i := int64(0); i < n; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		return w.Delete(500)
	})
	if err != nil {
		t.Fatalf("sharded WriteBatch: %v", err)
	}
	if got := s.Len(); got != n {
		t.Fatalf("sharded batch Len=%d, want %d", got, n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// An fn error must apply nothing on any shard.
	boom := errors.New("boom")
	err = s.WriteBatch(func(w BatchWriter) error {
		for i := int64(100); i < 110; i++ {
			if err := w.Insert(i, batchPDF(rng)); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sharded WriteBatch error = %v, want %v", err, boom)
	}
	if got := s.Len(); got != n {
		t.Fatalf("failed sharded batch mutated the index: Len=%d, want %d", got, n)
	}

	// GCInfo merges across shards: epochs advanced everywhere, nothing
	// pending once deferred garbage drained.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	info := s.GCInfo()
	if info.Epoch == 0 {
		t.Fatal("merged GCInfo reports epoch 0")
	}
	if info.PendingPages != 0 || info.PendingTombstones != 0 || info.PendingEpochs != 0 {
		t.Fatalf("pending garbage after Flush with no pins: %+v", info)
	}
}

// TestBackgroundReclaimerPinSafety hammers a file-backed Tree
// with a grouped writer, snapshot readers validating invariants on every
// pinned epoch, and the background reclaimer draining on 1 ms ticks with a
// small page budget. Under -race this doubles as the data race check; the
// per-snapshot CheckInvariants would catch the reclaimer freeing any page
// a pinned epoch can still reach. Once the writer idles, pending garbage
// must drain to zero through the reclaimer alone — no Flush, no explicit
// Reclaim.
func TestBackgroundReclaimerPinSafety(t *testing.T) {
	cfg := Config{
		Dimensions:        2,
		ExactRefinement:   true,
		Path:              filepath.Join(t.TempDir(), "hammer.utree"),
		BufferPages:       32,
		GroupCommitOps:    4,
		ReclaimInterval:   time.Millisecond,
		ReclaimPageBudget: 8,
	}
	c, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if !c.GCInfo().ReclaimerRunning {
		t.Fatal("background reclaimer not running")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readerErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				err := snap.CheckInvariants()
				if err == nil {
					_, _, err = snap.Search(context.Background(),
						Box(Pt(0, 0), Pt(1000, 1000)), 0.5)
				}
				snap.Close()
				if err != nil {
					select {
					case readerErr <- err:
					default:
					}
					return
				}
			}
		}(int64(r))
	}

	// 240 ops = 60 groups of 4; every 3rd insert is later deleted, so the
	// reclaimer sees both retired COW pages and data-record tombstones.
	rng := rand.New(rand.NewSource(7))
	ops := 0
	for i := int64(0); i < 160; i++ {
		if err := c.Insert(i, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
		ops++
		if i%2 == 1 {
			if err := c.Delete(i - 1); err != nil {
				t.Fatal(err)
			}
			ops++
		}
	}
	if ops%cfg.GroupCommitOps != 0 {
		t.Fatalf("test bug: %d ops leave an open group tail", ops)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("reader during hammer: %v", err)
	default:
	}

	// Writer idle, no pins: the reclaimer must drain everything on its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := c.GCInfo()
		if info.PendingPages == 0 && info.PendingTombstones == 0 && info.PendingEpochs == 0 {
			if info.ReclaimedPages == 0 {
				t.Fatal("reclaimer drained nothing despite COW churn")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending garbage never drained while idle: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPDFsMapCompactsUnderChurn: under insert/delete churn the id → MBR
// map is rebuilt at group seals once deletes outnumber the live ids, and
// the rebuilt map still resolves every live id (Delete(id) works).
func TestPDFsMapCompactsUnderChurn(t *testing.T) {
	tree, err := NewTree(Config{Dimensions: 2, ExactRefinement: true, GroupCommitOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(11))
	const live = 40
	for id := int64(0); id < live; id++ {
		if err := tree.Insert(id, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
	}
	rebuilds := 0
	for next := int64(live); next < 6*live; next++ {
		before := tree.pdfDeletes
		if err := tree.Delete(next - live); err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(next, batchPDF(rng)); err != nil {
			t.Fatal(err)
		}
		if tree.pdfDeletes < before {
			rebuilds++
		}
		if tree.pdfDeletes > len(tree.pdfs)+8 {
			t.Fatalf("%d deletes since the last rebuild with %d live ids", tree.pdfDeletes, len(tree.pdfs))
		}
	}
	if rebuilds < 4 {
		t.Fatalf("%d map rebuilds over %d deletes of %d live ids, want at least 4", rebuilds, 5*live, live)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := int64(5 * live); id < 6*live; id++ {
		if err := tree.Delete(id); err != nil {
			t.Fatalf("live id %d not resolvable after rebuilds: %v", id, err)
		}
	}
	if n := tree.Len(); n != 0 {
		t.Fatalf("Len = %d after deleting every live id", n)
	}
}

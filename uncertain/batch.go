package uncertain

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Group commit: instead of publishing one commit epoch per mutation (the
// pre-group behavior, still the default), a Tree can gather mutations into
// an open group and publish them together — one metadata write, one pool
// flush, one data-page flush, and at most one shadow relocation per node
// for the whole group. Groups close on a size threshold
// (Config.GroupCommitOps), an age deadline (Config.GroupCommitInterval),
// an explicit WriteBatch, or Flush/Close. Snapshots only ever observe
// committed group boundaries; a crash recovers to the last committed
// boundary, never mid-group.

// pdfUndo is one entry of the open group's bookkeeping journal: enough to
// restore the pdfs map if the group rolls back.
type pdfUndo struct {
	id   int64
	prev flatMBR
	had  bool
}

// flatMBR is a region MBR stored as one slice, Lo then Hi, so each tracked
// id costs one allocation instead of three.
type flatMBR []float64

func newFlatMBR(r Rect) flatMBR {
	f := make(flatMBR, 2*len(r.Lo))
	copy(f, r.Lo)
	copy(f[len(r.Lo):], r.Hi)
	return f
}

// rect views f as a Rect without copying.
func (f flatMBR) rect() Rect {
	d := len(f) / 2
	return Rect{Lo: geom.Point(f[:d:d]), Hi: geom.Point(f[d:])}
}

// grouping reports whether mutations should accumulate instead of
// auto-committing per op.
func (t *Tree) grouping() bool { return t.inBatch || t.gcOps > 1 || t.gcInterval > 0 }

// beginGroupOp opens the core batch lazily before a mutation joins a
// group, so the core layer sees the whole group as one explicit batch.
func (t *Tree) beginGroupOp() {
	if t.grouping() && !t.inner.InBatch() {
		_ = t.inner.BeginBatch() // only fails when already in a batch
	}
}

// trackInsert records the pdfs-map update (with its undo entry) for an
// insert that joined the open group.
func (t *Tree) trackInsert(id int64, mbr Rect) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	t.pdfs[id] = newFlatMBR(mbr)
}

// trackDelete records the pdfs-map removal for a delete that joined the
// open group.
func (t *Tree) trackDelete(id int64) {
	prev, had := t.pdfs[id]
	t.undo = append(t.undo, pdfUndo{id: id, prev: prev, had: had})
	delete(t.pdfs, id)
	t.pdfDeletes++
}

// revertUndo replays the open group's bookkeeping journal backwards.
func (t *Tree) revertUndo() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if u.had {
			t.pdfs[u.id] = u.prev
		} else {
			delete(t.pdfs, u.id)
		}
	}
	t.undo = t.undo[:0]
}

// noteOp counts a completed mutation into the open group and commits the
// group if the policy says so.
func (t *Tree) noteOp() error {
	if t.groupOps == 0 {
		t.groupStart = time.Now()
	}
	t.groupOps++
	return t.maybeCommit()
}

// maybeCommit applies the group-commit policy: never inside an explicit
// WriteBatch; immediately with grouping disabled; otherwise on the size
// threshold. The age deadline belongs to the group timer alone.
func (t *Tree) maybeCommit() error {
	if t.inBatch {
		return nil
	}
	if t.gcOps <= 1 && t.gcInterval == 0 {
		return t.commitGroupNow()
	}
	if t.gcOps > 1 && t.groupOps >= t.gcOps {
		return t.commitGroupNow()
	}
	return nil
}

// commitGroupNow seals the open group as one epoch; on a commit failure
// the whole group rolls back.
func (t *Tree) commitGroupNow() error {
	if err := t.commit(); err != nil {
		return t.rollback(err)
	}
	t.groupOps = 0
	t.undo = t.undo[:0]
	t.compactPDFs()
	return nil
}

// compactPDFs rebuilds the pdfs map into a fresh one sized to its length
// once more keys were deleted since the last rebuild than it now holds. A
// Go map never shrinks, and under insert/delete churn its table fills with
// deleted slots and steps up in size; the rebuild bounds it at a small
// multiple of the live ids. It runs only at a group seal, once the undo
// journal is cleared, so a rebuild never has to be rolled back.
func (t *Tree) compactPDFs() {
	if t.pdfDeletes <= len(t.pdfs) {
		return
	}
	fresh := make(map[int64]flatMBR, len(t.pdfs))
	for id, mbr := range t.pdfs {
		fresh[id] = mbr
	}
	t.pdfs, t.pdfDeletes = fresh, 0
}

// commitPending seals the open group if it holds any mutations.
func (t *Tree) commitPending() error {
	if t.groupOps == 0 {
		return nil
	}
	return t.commitGroupNow()
}

// startGroupTimer arms the group-commit deadline timer, which seals an
// open group once it is older than the interval (so within about 1.25
// intervals); no-op without an interval.
func (t *Tree) startGroupTimer() {
	if t.gcInterval <= 0 {
		return
	}
	period := t.gcInterval / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t.tickStop = make(chan struct{})
	t.tickDone = make(chan struct{})
	go func() {
		defer close(t.tickDone)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-t.tickStop:
				return
			case <-tick.C:
				t.mu.Lock()
				if t.groupOps > 0 && time.Since(t.groupStart) >= t.gcInterval {
					if err := t.commitPending(); err != nil && t.tickErr == nil {
						t.tickErr = err
					}
				}
				t.mu.Unlock()
			}
		}
	}()
}

// stopGroupTimer stops the deadline timer; idempotent.
func (t *Tree) stopGroupTimer() {
	if t.tickStop == nil {
		return
	}
	close(t.tickStop)
	<-t.tickDone
	t.tickStop, t.tickDone = nil, nil
}

// takeTickErr returns and clears a stashed timer-side commit failure.
// Caller holds t.mu.
func (t *Tree) takeTickErr() error {
	err := t.tickErr
	t.tickErr = nil
	return err
}

// BatchWriter is the mutation surface inside Tree.WriteBatch. Errors are
// sticky: after a failed operation (other than a not-found delete) the
// batch is already rolled back and every later call returns the same
// error.
type BatchWriter interface {
	// Insert adds an object to the batch.
	Insert(id int64, pdf PDF) error
	// Delete removes an object inserted in this process lifetime.
	Delete(id int64) error
	// DeleteWithRegion removes an object by ID and region MBR. A not-found
	// delete returns core's not-found error without poisoning the batch.
	DeleteWithRegion(id int64, regionMBR Rect) error
}

// errInsideBatch rejects a Close or Discard called from inside the tree's
// own WriteBatch fn: both must stop the group timer, which may be waiting
// for the writer mutex the batch holds.
var errInsideBatch = errors.New("uncertain: Close or Discard inside WriteBatch")

// lockWriter takes the writer mutex and reports whether it did. It does
// not when the calling goroutine is inside this tree's own WriteBatch fn,
// which already holds the mutex: the call then runs as part of the batch
// instead of deadlocking. Only a contended lock pays for the check.
func (t *Tree) lockWriter() bool {
	if t.mu.TryLock() {
		return true
	}
	if t.inOwnBatch() {
		return false
	}
	t.mu.Lock()
	return true
}

// inOwnBatch reports whether the calling goroutine is running this tree's
// WriteBatch fn.
func (t *Tree) inOwnBatch() bool {
	g := t.batchG.Load()
	return g != 0 && g == goid()
}

// goid returns the calling goroutine's ID, parsed from the "goroutine N "
// header runtime.Stack writes. Go offers no other handle on the current
// goroutine; WriteBatch records it so a call from its fn can be told from
// a concurrent writer.
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// treeBatch implements BatchWriter over a Tree whose inBatch flag
// suppresses the auto-commit policy. WriteBatch holds the writer mutex for
// the whole batch, so the ops call the locked internals.
type treeBatch struct {
	t   *Tree
	err error
}

func (b *treeBatch) run(op func() error) error {
	if b.err != nil {
		return fmt.Errorf("uncertain: batch already failed: %w", b.err)
	}
	if err := op(); err != nil {
		if !errors.Is(err, core.ErrNotFound) {
			b.err = err
		}
		return err
	}
	return nil
}

func (b *treeBatch) Insert(id int64, pdf PDF) error {
	return b.run(func() error { return b.t.insertLocked(id, pdf) })
}

func (b *treeBatch) Delete(id int64) error {
	return b.run(func() error { return b.t.deleteLocked(id) })
}

func (b *treeBatch) DeleteWithRegion(id int64, regionMBR Rect) error {
	return b.run(func() error { return b.t.deleteWithRegionLocked(id, regionMBR) })
}

// WriteBatch runs fn against a batch writer and commits everything it did
// as ONE epoch: concurrent readers observe either none of the batch or all
// of it, never a prefix, and for file-backed trees the whole batch becomes
// durable atomically — a crash recovers to this batch boundary or the
// previous one, never between. If fn returns an error or any mutation
// fails, the whole batch rolls back and the tree is unchanged. Any open
// auto-commit group is sealed (as its own epoch) first. The writer mutex
// is held while fn runs, so other writers wait for the batch. Batches do
// not nest: WriteBatch, Close and Discard called from fn return an error.
// The tree's other mutators called from fn run inside the batch.
func (t *Tree) WriteBatch(fn func(BatchWriter) error) error {
	if !t.lockWriter() {
		return fmt.Errorf("uncertain: nested WriteBatch")
	}
	defer t.mu.Unlock()
	if err := t.commitPending(); err != nil {
		return err
	}
	t.batchG.Store(goid())
	defer t.batchG.Store(0)
	t.inBatch = true
	b := &treeBatch{t: t}
	err := fn(b)
	t.inBatch = false
	if b.err != nil {
		// The failing mutation already rolled the whole batch back.
		if err != nil {
			return err
		}
		return b.err
	}
	if err != nil {
		return t.rollback(err)
	}
	return t.commitPending()
}

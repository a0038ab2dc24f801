package core

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// ErrNotFound is returned by Delete when no entry matches.
var ErrNotFound = fmt.Errorf("core: object not found")

// Delete removes the object with the given id and pdf MBR from the index
// and tombstones its data record. The MBR guides the descent (only subtrees
// whose bounding geometry can contain the object's entry are visited),
// mirroring R-tree deletion.
func (t *Tree) Delete(id int64, mbr geom.Rect) error {
	start := time.Now()
	r0, w0 := t.nodeReads.Load(), t.nodeWrites.Load()

	leaf, path, idx, err := t.findLeaf(t.rootPage, nil, id, mbr)
	if err != nil {
		return err
	}
	if leaf == nil {
		return ErrNotFound
	}
	addr := leaf.entries[idx].addr
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	if err := t.writeNode(leaf); err != nil {
		return err
	}
	if err := t.condense(leaf, path); err != nil {
		return err
	}
	// Tombstoning the data record is deferred to the epoch GC: a snapshot
	// pinned before this delete commits still holds a leaf entry pointing
	// at the record and must be able to refine it. The GC coalesces the
	// epoch's tombstones per data page and applies them once no such
	// snapshot remains.
	t.vs.DeferTombstone(addr.Page, addr.Slot)
	t.size--

	t.deleteStats.Ops++
	t.deleteStats.PageReads += t.nodeReads.Load() - r0
	t.deleteStats.PageWrites += t.nodeWrites.Load() - w0
	t.deleteStats.CPUTime += time.Since(start)
	return nil
}

// findLeaf locates the leaf containing (id, mbr). A subtree can hold the
// entry only if its boundary box at p_1 = 0 contains the object's MBR: a
// leaf entry's cfb_out(0) (U-tree) or pcr(0) (U-PCR) covers the region MBR,
// and intermediate boxes cover those in turn. The descent tolerates the
// same float epsilon as CheckInvariants, so a box whose faces round a hair
// inside the true union never hides an existing entry.
func (t *Tree) findLeaf(page pagefile.PageID, path []pathElem, id int64, mbr geom.Rect) (*node, []pathElem, int, error) {
	n, err := t.readNode(page)
	if err != nil {
		return nil, nil, -1, err
	}
	if n.leaf() {
		for i := range n.entries {
			if n.entries[i].id == id && n.entries[i].mbr.Equal(mbr) {
				return n, path, i, nil
			}
		}
		return nil, nil, -1, nil
	}
	for i := range n.entries {
		// boxAt(boxes, 0) is boxes[0]: p_1 = 0 makes the interpolation
		// factor 0.
		if !containsEps(n.entries[i].boxes[0], mbr, 1e-7) {
			continue
		}
		leaf, p, idx, err := t.findLeaf(n.entries[i].child, append(path, pathElem{n: n, childIdx: i}), id, mbr)
		if err != nil {
			return nil, nil, -1, err
		}
		if leaf != nil {
			return leaf, p, idx, nil
		}
	}
	return nil, nil, -1, nil
}

// condense removes underfull nodes along the path and reinserts their
// entries at the appropriate level (CondenseTree adapted to the U-tree).
func (t *Tree) condense(n *node, path []pathElem) error {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan

	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		minFill := t.minLeaf
		if !n.leaf() {
			minFill = t.minInner
		}
		if len(n.entries) < minFill {
			parent.n.entries = append(parent.n.entries[:parent.childIdx], parent.n.entries[parent.childIdx+1:]...)
			// Later path elements' childIdx values are positions in other
			// nodes, unaffected; earlier ones reference parent nodes above.
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
			if err := t.freeNode(n); err != nil {
				return err
			}
		} else if len(n.entries) > 0 {
			t.refreshEntry(&parent.n.entries[parent.childIdx], n) // COW may have moved n
		}
		if err := t.writeNode(parent.n); err != nil {
			return err
		}
		n = parent.n
	}

	// Root adjustments: collapse single-child internal roots; reset an
	// empty internal root to an empty leaf.
	for {
		root, err := t.readNode(t.rootPage)
		if err != nil {
			return err
		}
		if root.leaf() {
			break
		}
		if len(root.entries) == 1 {
			child := root.entries[0].child
			childNode, err := t.readNode(child)
			if err != nil {
				return err
			}
			if err := t.freeNode(root); err != nil {
				return err
			}
			t.rootPage = child
			t.rootLevel = childNode.level
			continue
		}
		if len(root.entries) == 0 {
			if err := t.freeNode(root); err != nil {
				return err
			}
			fresh, err := t.allocNode(0)
			if err != nil {
				return err
			}
			if err := t.writeNode(fresh); err != nil {
				return err
			}
			t.rootPage = fresh.page
			t.rootLevel = 0
		}
		break
	}

	// Reinsert orphans. Subtree entries go back at their original level; if
	// the tree shrank below that level, fall back to reinserting the
	// subtree's leaf entries individually.
	for _, o := range orphans {
		switch {
		case o.level == 0:
			if err := t.placeEntry(o.e, 0); err != nil {
				return err
			}
		case o.level <= t.rootLevel:
			if err := t.placeEntry(o.e, o.level); err != nil {
				return err
			}
		default:
			leaves, err := t.collectLeafEntries(o.e.child)
			if err != nil {
				return err
			}
			for _, le := range leaves {
				if err := t.placeEntry(le, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// collectLeafEntries drains the subtree rooted at page, freeing its nodes.
func (t *Tree) collectLeafEntries(page pagefile.PageID) ([]entry, error) {
	n, err := t.readNode(page)
	if err != nil {
		return nil, err
	}
	var out []entry
	if n.leaf() {
		out = append(out, n.entries...)
	} else {
		for i := range n.entries {
			sub, err := t.collectLeafEntries(n.entries[i].child)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
	}
	if err := t.freeNode(n); err != nil {
		return nil, err
	}
	return out, nil
}

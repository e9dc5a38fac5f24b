// Package rtree provides the in-memory R-tree the paper assumes as the
// spatial index over the dataset ("we assume that D is organized by a
// spatial index, such as an R-tree"): an immutable tree, STR bulk-loaded
// once, with window search and direct node access for the branch-and-bound
// (BBS) traversals of the skyband package. It indexes the stateless
// Dataset queries and the baselines; the serving engine keeps its candidate
// superset in skyband.Dynamic and builds no tree.
package rtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// DefaultFanout is the default maximum number of entries per node. With
// 8-byte coordinates and low dimensionality this approximates the page
// utilization used in the paper's experimental setup.
const DefaultFanout = 64

// Entry is a node slot: a minimum bounding box plus either a child node
// (internal levels) or a record id (leaf level).
type Entry struct {
	Min, Max []float64
	Child    *Node
	RecordID int
}

// Node is an R-tree node. Nodes are exposed read-only so that search
// algorithms in other packages (e.g., BBS) can traverse the structure
// without the tree dictating an iteration order.
type Node struct {
	leaf    bool
	entries []Entry
}

// Leaf reports whether the node is at the leaf level.
func (n *Node) Leaf() bool { return n.leaf }

// Entries returns the node's entry slice. Callers must not modify it.
func (n *Node) Entries() []Entry { return n.entries }

// Tree is an in-memory R-tree over d-dimensional points.
type Tree struct {
	dim    int
	fanout int
	root   *Node
	size   int
}

// BulkLoad builds a tree over the given points using the Sort-Tile-Recursive
// packing algorithm. Record ids are the point indices.
func BulkLoad(points [][]float64, fanout int) (*Tree, error) {
	if len(points) == 0 {
		return nil, errors.New("rtree: cannot bulk-load an empty point set")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("rtree: non-positive dimensionality")
	}
	if fanout < 4 {
		return nil, fmt.Errorf("rtree: fanout %d too small (minimum 4)", fanout)
	}
	if len(points) > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: %d points exceed the int32 id range", len(points))
	}
	ids := make([]int32, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("rtree: point %d has dimension %d, want %d", i, len(p), dim)
		}
		ids[i] = int32(i)
	}
	leaves := strPack(points, ids, make([]keyed, len(ids)), dim, fanout, 0)
	entries := make([]Entry, 0, len(points)) // one block for every leaf's entries
	nodes := make([]*Node, len(leaves))
	for i, le := range leaves {
		for _, id := range le {
			entries = append(entries, Entry{Min: points[id], Max: points[id], RecordID: int(id)})
		}
		nodes[i] = &Node{leaf: true, entries: entries[len(entries)-len(le) : len(entries) : len(entries)]}
	}
	for len(nodes) > 1 {
		parents := make([]*Node, 0, (len(nodes)+fanout-1)/fanout)
		for i := 0; i < len(nodes); i += fanout {
			parent := &Node{}
			for _, child := range nodes[i:min(i+fanout, len(nodes))] {
				mn, mx := nodeMBB(child)
				parent.entries = append(parent.entries, Entry{Min: mn, Max: mx, Child: child})
			}
			parents = append(parents, parent)
		}
		nodes = parents
	}
	return &Tree{dim: dim, fanout: fanout, root: nodes[0], size: len(points)}, nil
}

// keyed is a point id with the coordinate strPack currently sorts on.
type keyed struct {
	key float64
	id  int32
}

// strPack recursively tiles the ids into leaf pages, sorting on successive
// dimensions: each sort runs over the extracted (coordinate, id) pairs in ks
// (scratch parallel to ids), ties by id, so the tree is a function of the
// points alone.
func strPack(points [][]float64, ids []int32, ks []keyed, dim, fanout, depth int) [][]int32 {
	for i, id := range ids {
		ks[i] = keyed{points[id][depth], id}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := range ids {
		ids[i] = ks[i].id
	}
	leaf, per := depth == dim-1 || len(ids) <= fanout, fanout
	if !leaf {
		pages := (len(ids) + fanout - 1) / fanout
		slabs := max(int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-depth)))), 1)
		per = (len(ids) + slabs - 1) / slabs
	}
	var out [][]int32
	for i := 0; i < len(ids); i += per {
		end := min(i+per, len(ids))
		if leaf {
			out = append(out, ids[i:end:end])
		} else {
			out = append(out, strPack(points, ids[i:end:end], ks[i:end:end], dim, fanout, depth+1)...)
		}
	}
	return out
}

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Root returns the root node for external traversals.
func (t *Tree) Root() *Node { return t.root }

// Height returns the number of levels (1 for a tree holding only a leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].Child {
		h++
	}
	return h
}

// Search returns the ids of all points inside the window [mn, mx].
func (t *Tree) Search(mn, mx []float64) []int {
	var out []int
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.entries {
			if !boxesOverlap(e.Min, e.Max, mn, mx) {
				continue
			}
			if n.leaf {
				out = append(out, e.RecordID)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(t.root)
	return out
}

// Validate checks structural invariants: MBBs cover children, leaves at the
// same depth, fanout respected. Intended for tests.
func (t *Tree) Validate() error {
	depths := map[int]bool{}
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if len(n.entries) == 0 {
			return errors.New("rtree: empty node")
		}
		if len(n.entries) > t.fanout {
			return fmt.Errorf("rtree: node exceeds fanout: %d > %d", len(n.entries), t.fanout)
		}
		if n.leaf {
			depths[depth] = true
			return nil
		}
		for _, e := range n.entries {
			cmn, cmx := nodeMBB(e.Child)
			for i := 0; i < t.dim; i++ {
				if cmn[i] < e.Min[i]-1e-12 || cmx[i] > e.Max[i]+1e-12 {
					return fmt.Errorf("rtree: entry MBB does not cover child in dimension %d", i)
				}
			}
			if err := walk(e.Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if len(depths) > 1 {
		return errors.New("rtree: leaves at differing depths")
	}
	return nil
}

func nodeMBB(n *Node) ([]float64, []float64) {
	mn, mx := slices.Clone(n.entries[0].Min), slices.Clone(n.entries[0].Max)
	for _, e := range n.entries[1:] {
		for i := range mn {
			mn[i], mx[i] = min(mn[i], e.Min[i]), max(mx[i], e.Max[i])
		}
	}
	return mn, mx
}

func boxesOverlap(mn1, mx1, mn2, mx2 []float64) bool {
	for i := range mn1 {
		if mx1[i] < mn2[i] || mx2[i] < mn1[i] {
			return false
		}
	}
	return true
}

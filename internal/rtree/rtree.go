// Package rtree provides the in-memory R-tree the paper assumes as the
// spatial index over the dataset ("we assume that D is organized by a
// spatial index, such as an R-tree"): an immutable tree, STR bulk-loaded
// once, with window search and direct node access for the branch-and-bound
// (BBS) traversals of the skyband package. It indexes the stateless
// Dataset queries and the baselines; the serving engine keeps its candidate
// superset in skyband.Dynamic and builds no tree.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
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
	entries := make([]Entry, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("rtree: point %d has dimension %d, want %d", i, len(p), dim)
		}
		entries[i] = Entry{Min: p, Max: p, RecordID: i}
	}
	leaves := strPack(entries, dim, fanout, 0)
	nodes := make([]*Node, len(leaves))
	for i, le := range leaves {
		nodes[i] = &Node{leaf: true, entries: le}
	}
	for len(nodes) > 1 {
		parents := make([]*Node, 0, (len(nodes)+fanout-1)/fanout)
		for i := 0; i < len(nodes); i += fanout {
			end := i + fanout
			if end > len(nodes) {
				end = len(nodes)
			}
			parent := &Node{}
			for _, child := range nodes[i:end] {
				mn, mx := nodeMBB(child)
				parent.entries = append(parent.entries, Entry{Min: mn, Max: mx, Child: child})
			}
			parents = append(parents, parent)
		}
		nodes = parents
	}
	return &Tree{dim: dim, fanout: fanout, root: nodes[0], size: len(points)}, nil
}

// strPack recursively tiles entries into leaf pages, sorting on successive
// dimensions.
func strPack(entries []Entry, dim, fanout, depth int) [][]Entry {
	if depth == dim-1 || len(entries) <= fanout {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Min[depth] < entries[j].Min[depth] })
		out := make([][]Entry, 0, (len(entries)+fanout-1)/fanout)
		for i := 0; i < len(entries); i += fanout {
			end := i + fanout
			if end > len(entries) {
				end = len(entries)
			}
			out = append(out, entries[i:end:end])
		}
		return out
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Min[depth] < entries[j].Min[depth] })
	pages := (len(entries) + fanout - 1) / fanout
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-depth))))
	if slabs < 1 {
		slabs = 1
	}
	per := (len(entries) + slabs - 1) / slabs
	var out [][]Entry
	for i := 0; i < len(entries); i += per {
		end := i + per
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, strPack(entries[i:end:end], dim, fanout, depth+1)...)
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
	mn := append([]float64(nil), n.entries[0].Min...)
	mx := append([]float64(nil), n.entries[0].Max...)
	for _, e := range n.entries[1:] {
		mn, mx = combineMBB(mn, mx, e.Min, e.Max)
	}
	return mn, mx
}

func combineMBB(mn1, mx1, mn2, mx2 []float64) ([]float64, []float64) {
	mn := make([]float64, len(mn1))
	mx := make([]float64, len(mx1))
	for i := range mn {
		mn[i] = math.Min(mn1[i], mn2[i])
		mx[i] = math.Max(mx1[i], mx2[i])
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

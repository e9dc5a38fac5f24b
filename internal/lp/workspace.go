package lp

import "sync"

// Workspace holds reusable backing memory for the cell-LP dictionary. A
// single UTK2 query issues hundreds of small LPs; without a workspace each
// one allocates its dictionary from scratch.
//
// A Workspace serves one goroutine at a time (no internal locking); callers
// pool one per exec worker. A nil *Workspace is valid and allocates per call
// — the package-level entry points are exactly that. Everything a solve
// returns (optimizers, interior points) is freshly allocated and never
// aliases workspace memory, so results may be retained arbitrarily long
// after the workspace is reused.
type Workspace struct {
	d    dict
	a    []float64
	vars []int
}

// dict reshapes the workspace backing into a zeroed dictionary with room for
// rows constraint rows plus the objective over nv free variables, every free
// variable nonbasic and every slack basic. The caller fills the rows and
// sets d.m to the number it used.
func (ws *Workspace) dict(rows, nv int) *dict {
	if ws == nil {
		ws = new(Workspace)
	}
	total := (rows + 1) * (nv + 1)
	if cap(ws.a) < total {
		ws.a = make([]float64, total+total/2)
	}
	if cap(ws.vars) < rows+nv {
		ws.vars = make([]int, rows+nv+(rows+nv)/2)
	}
	ws.d = dict{nv: nv, a: ws.a[:total], basic: ws.vars[:rows], nonbasic: ws.vars[rows : rows+nv]}
	clear(ws.d.a)
	for i := range ws.d.basic {
		ws.d.basic[i] = nv + i
	}
	for j := range ws.d.nonbasic {
		ws.d.nonbasic[j] = j
	}
	return &ws.d
}

var wsPool = sync.Pool{New: func() interface{} { return new(Workspace) }}

// GetWorkspace takes a workspace from the process-wide pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the pool. Points computed through it
// stay valid: results never alias workspace memory.
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

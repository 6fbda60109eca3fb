// Package peg builds the Program Execution Graph (PEG) — the graph
// representation of code this work classifies. Nodes are computational
// units, loops and functions; edges are hierarchy (containment) plus the
// RAW/WAR/WAW data dependences measured by internal/deps. Each loop and
// the nodes within its dynamic extent form a sub-PEG, the unit of
// classification (paper §III-A, figure 5).
package peg

import (
	"context"
	"fmt"

	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/graph"
	"mvpar/internal/ir"
	"mvpar/internal/obs"
)

// NodeKind distinguishes PEG node types.
type NodeKind int

// PEG node kinds.
const (
	NodeCU NodeKind = iota
	NodeLoop
	NodeFunc
)

func (k NodeKind) String() string {
	switch k {
	case NodeCU:
		return "cu"
	case NodeLoop:
		return "loop"
	default:
		return "func"
	}
}

// Edge kinds used in the underlying graph. Dependence kinds are offset so
// a carried dependence is distinguishable from an independent one.
const (
	EdgeHierarchy = iota
	EdgeRAW
	EdgeWAR
	EdgeWAW
	EdgeRAWCarried
	EdgeWARCarried
	EdgeWAWCarried
)

// EdgeKindName names a PEG edge kind.
func EdgeKindName(k int) string {
	switch k {
	case EdgeHierarchy:
		return "child"
	case EdgeRAW:
		return "RAW"
	case EdgeWAR:
		return "WAR"
	case EdgeWAW:
		return "WAW"
	case EdgeRAWCarried:
		return "RAW*"
	case EdgeWARCarried:
		return "WAR*"
	case EdgeWAWCarried:
		return "WAW*"
	}
	return "?"
}

// DepEdgeKind maps a dependence to its PEG edge kind.
func DepEdgeKind(e deps.Edge) int {
	base := EdgeRAW
	switch e.Kind {
	case deps.WAR:
		base = EdgeWAR
	case deps.WAW:
		base = EdgeWAW
	}
	if e.Carried {
		base += EdgeRAWCarried - EdgeRAW
	}
	return base
}

// Node is one PEG node.
type Node struct {
	Kind   NodeKind
	CU     *cu.CU // when Kind == NodeCU
	LoopID int    // when Kind == NodeLoop
	Func   string // owning function (or the function itself for NodeFunc)
	Line   int
}

// Label renders a compact node label for DOT output.
func (n *Node) Label() string {
	switch n.Kind {
	case NodeCU:
		return fmt.Sprintf("cu%d@%d", n.CU.StmtID, n.Line)
	case NodeLoop:
		return fmt.Sprintf("loop%d@%d", n.LoopID, n.Line)
	default:
		return "fn:" + n.Func
	}
}

// PEG is a program execution graph.
type PEG struct {
	G     *graph.Directed
	Nodes []*Node

	ByStmt map[int]int // statement ID -> node index
	ByLoop map[int]int // loop ID -> node index
	ByFunc map[string]int

	CUs  *cu.Set
	Prog *ir.Program
}

// Build constructs the full-program PEG from the CU partition and the
// measured dependences.
func Build(prog *ir.Program, cus *cu.Set, result *deps.Result) *PEG {
	_, sp := obs.StartSpan(context.TODO(), "peg.build")
	defer sp.End()
	p := &PEG{
		G:      graph.New(0),
		ByStmt: map[int]int{},
		ByLoop: map[int]int{},
		ByFunc: map[string]int{},
		CUs:    cus,
		Prog:   prog,
	}
	for _, fn := range prog.Funcs {
		id := p.G.AddNode()
		p.Nodes = append(p.Nodes, &Node{Kind: NodeFunc, Func: fn.Name})
		p.ByFunc[fn.Name] = id
	}
	for _, loopID := range prog.LoopIDs() {
		meta := prog.Loops[loopID]
		id := p.G.AddNode()
		p.Nodes = append(p.Nodes, &Node{Kind: NodeLoop, LoopID: loopID, Func: meta.Func, Line: meta.Line})
		p.ByLoop[loopID] = id
	}
	for _, c := range cus.CUs {
		id := p.G.AddNode()
		p.Nodes = append(p.Nodes, &Node{Kind: NodeCU, CU: c, Func: c.Func, Line: c.Line})
		p.ByStmt[c.StmtID] = id
	}

	// Hierarchy: function -> top-level loops and CUs; loop -> direct
	// children (nested loops and CUs).
	loopParent := map[int]int{} // loop -> parent loop (0 = function level)
	for _, loopID := range prog.LoopIDs() {
		loopParent[loopID] = 0
	}
	for _, fn := range prog.Funcs {
		var stack []int
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				if len(stack) > 0 {
					loopParent[in.LoopID] = stack[len(stack)-1]
				}
				stack = append(stack, in.LoopID)
			case ir.OpLoopEnd:
				stack = stack[:len(stack)-1]
			}
		}
	}
	for _, loopID := range prog.LoopIDs() {
		meta := prog.Loops[loopID]
		if parent := loopParent[loopID]; parent != 0 {
			p.G.AddEdge(p.ByLoop[parent], p.ByLoop[loopID], EdgeHierarchy)
		} else {
			p.G.AddEdge(p.ByFunc[meta.Func], p.ByLoop[loopID], EdgeHierarchy)
		}
	}
	for _, c := range cus.CUs {
		child := p.ByStmt[c.StmtID]
		if c.LoopID != 0 {
			p.G.AddEdge(p.ByLoop[c.LoopID], child, EdgeHierarchy)
		} else {
			p.G.AddEdge(p.ByFunc[c.Func], child, EdgeHierarchy)
		}
	}

	// Dependence edges between CU nodes (self-dependences kept: a carried
	// self-edge is exactly what a recurrence looks like structurally).
	for _, e := range result.Edges {
		src, okS := p.ByStmt[e.SrcStmt]
		dst, okD := p.ByStmt[e.DstStmt]
		if !okS || !okD {
			continue
		}
		kind := DepEdgeKind(e)
		if !p.G.HasEdgeKind(src, dst, kind) {
			p.G.AddEdge(src, dst, kind)
		}
	}
	obs.GetCounter("mvpar_peg_builds_total").Inc()
	obs.GetCounter("mvpar_peg_nodes_total").Add(int64(p.G.NumNodes()))
	obs.GetCounter("mvpar_peg_edges_total").Add(int64(p.G.NumEdges()))
	return p
}

// SubPEG is the classification unit: the loop node plus every node in the
// loop's dynamic extent, with induced edges.
type SubPEG struct {
	LoopID int
	G      *graph.Directed
	Nodes  []*Node // parallel to G's node IDs
	Root   int     // index of the loop node within Nodes
}

// Extract returns the sub-PEG of one loop: the loop node, the CUs of the
// loop's dynamic extent (including called functions), and nested loop
// nodes, with all induced edges.
func (p *PEG) Extract(loopID int) *SubPEG {
	stmts := p.CUs.LoopRegionStmts(loopID)
	var ids []int
	ids = append(ids, p.ByLoop[loopID])
	// Nested loops inside the region.
	inRegion := map[int]bool{}
	for _, s := range stmts {
		inRegion[s] = true
	}
	for _, other := range p.Prog.LoopIDs() {
		if other == loopID {
			continue
		}
		for _, s := range p.CUs.LoopStmts[other] {
			if inRegion[s] {
				ids = append(ids, p.ByLoop[other])
				break
			}
		}
	}
	for _, s := range stmts {
		if id, ok := p.ByStmt[s]; ok {
			ids = append(ids, id)
		}
	}
	sub, newToOld := p.G.Subgraph(ids)
	nodes := make([]*Node, len(newToOld))
	root := 0
	for i, old := range newToOld {
		nodes[i] = p.Nodes[old]
		if nodes[i].Kind == NodeLoop && nodes[i].LoopID == loopID {
			root = i
		}
	}
	return &SubPEG{LoopID: loopID, G: sub, Nodes: nodes, Root: root}
}

// ExtractAll returns sub-PEGs for every loop, in loop-ID order.
func (p *PEG) ExtractAll() []*SubPEG {
	var out []*SubPEG
	for _, id := range p.Prog.LoopIDs() {
		out = append(out, p.Extract(id))
	}
	return out
}

// DOT renders the PEG in Graphviz format.
func (p *PEG) DOT(name string) string {
	return p.G.DOT(name,
		func(v int) string { return p.Nodes[v].Label() },
		func(e graph.Edge) string { return EdgeKindName(e.Kind) })
}

// DOT renders a sub-PEG in Graphviz format.
func (s *SubPEG) DOT(name string) string {
	return s.G.DOT(name,
		func(v int) string { return s.Nodes[v].Label() },
		func(e graph.Edge) string { return EdgeKindName(e.Kind) })
}

// Package cu builds computational units (CUs) from lowered IR, mirroring
// DiscoPoP's phase-1 CU construction. A CU is the read-compute-write chain
// of one source statement: all IR instructions sharing a statement ID.
// CUs are the granularity at which the program execution graph (PEG)
// represents code.
package cu

import (
	"context"
	"sort"

	"mvpar/internal/ir"
	"mvpar/internal/obs"
)

// CU is one computational unit.
type CU struct {
	StmtID int    // unique statement ID (the CU identity)
	Func   string // declaring function
	Line   int    // source line
	Instrs []ir.Instr
	// LoopID is the innermost loop statically containing the CU, 0 if none.
	LoopID int
	// LoopPath lists enclosing loops outermost-first (static nesting).
	LoopPath []int
	// Reads and Writes are the variable names accessed.
	Reads  []string
	Writes []string
	// HasCall reports whether the CU performs a function call.
	HasCall bool
	// Callees lists the called function names.
	Callees []string
	// Reduction is non-none when the CU is a tagged reduction statement.
	Reduction ir.RedOp
}

// NumInstrs returns the instruction count of the CU.
func (c *CU) NumInstrs() int { return len(c.Instrs) }

// Set is the complete CU partition of a program.
type Set struct {
	CUs    []*CU
	ByStmt map[int]*CU
	// LoopStmts maps loop ID to the statement IDs statically inside it
	// (including statements of nested loops, excluding called functions).
	LoopStmts map[int][]int
	// FuncStmts maps function name to its statement IDs.
	FuncStmts map[string][]int
	// Calls maps function name to the set of functions it calls.
	Calls map[string]map[string]bool
}

// Build partitions prog into CUs.
func Build(prog *ir.Program) *Set {
	_, sp := obs.StartSpan(context.TODO(), "cu.build")
	defer sp.End()
	s := &Set{
		ByStmt:    map[int]*CU{},
		LoopStmts: map[int][]int{},
		FuncStmts: map[string][]int{},
		Calls:     map[string]map[string]bool{},
	}
	for _, fn := range prog.Funcs {
		var loopStack []int
		seenInFunc := map[int]bool{}
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				loopStack = append(loopStack, in.LoopID)
				continue
			case ir.OpLoopEnd:
				loopStack = loopStack[:len(loopStack)-1]
				continue
			case ir.OpLoopNext, ir.OpBr:
				continue
			}
			if in.StmtID == 0 {
				continue
			}
			c := s.ByStmt[in.StmtID]
			if c == nil {
				c = &CU{
					StmtID:   in.StmtID,
					Func:     fn.Name,
					Line:     in.Line,
					LoopPath: append([]int(nil), loopStack...),
				}
				if len(loopStack) > 0 {
					c.LoopID = loopStack[len(loopStack)-1]
				}
				s.ByStmt[in.StmtID] = c
				s.CUs = append(s.CUs, c)
			}
			c.Instrs = append(c.Instrs, in)
			switch in.Op {
			case ir.OpLoad:
				c.Reads = appendUnique(c.Reads, in.Var)
				if in.Red != ir.RedNone {
					c.Reduction = in.Red
				}
			case ir.OpStore:
				c.Writes = appendUnique(c.Writes, in.Var)
				if in.Red != ir.RedNone {
					c.Reduction = in.Red
				}
			case ir.OpCall:
				c.HasCall = true
				c.Callees = appendUnique(c.Callees, in.Callee)
				callees := s.Calls[fn.Name]
				if callees == nil {
					callees = map[string]bool{}
					s.Calls[fn.Name] = callees
				}
				callees[in.Callee] = true
			}
			if !seenInFunc[in.StmtID] {
				seenInFunc[in.StmtID] = true
				s.FuncStmts[fn.Name] = append(s.FuncStmts[fn.Name], in.StmtID)
				for _, l := range loopStack {
					s.LoopStmts[l] = append(s.LoopStmts[l], in.StmtID)
				}
			}
		}
	}
	sort.Slice(s.CUs, func(i, j int) bool { return s.CUs[i].StmtID < s.CUs[j].StmtID })
	obs.GetCounter("mvpar_cu_builds_total").Inc()
	obs.GetCounter("mvpar_cu_units_total").Add(int64(len(s.CUs)))
	return s
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// ReachableFuncs returns every function reachable from the given set of
// callees, following the static call graph (including the roots).
func (s *Set) ReachableFuncs(roots []string) []string {
	seen := map[string]bool{}
	var order []string
	var visit func(f string)
	visit = func(f string) {
		if seen[f] {
			return
		}
		seen[f] = true
		order = append(order, f)
		var callees []string
		for c := range s.Calls[f] {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		for _, c := range callees {
			visit(c)
		}
	}
	sort.Strings(roots)
	for _, r := range roots {
		visit(r)
	}
	return order
}

// LoopRegionStmts returns the statement IDs belonging to the dynamic
// extent of a loop: its static body plus the bodies of every function
// reachable from calls inside that body.
func (s *Set) LoopRegionStmts(loopID int) []int {
	body := s.LoopStmts[loopID]
	var roots []string
	for _, stmt := range body {
		if c := s.ByStmt[stmt]; c != nil && c.HasCall {
			roots = append(roots, c.Callees...)
		}
	}
	stmts := append([]int(nil), body...)
	for _, fn := range s.ReachableFuncs(roots) {
		stmts = append(stmts, s.FuncStmts[fn]...)
	}
	sort.Ints(stmts)
	// Deduplicate (a function may be reachable through several calls).
	out := stmts[:0]
	for i, v := range stmts {
		if i == 0 || v != stmts[i-1] {
			out = append(out, v)
		}
	}
	return out
}

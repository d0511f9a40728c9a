package ir

import (
	"fmt"
	"slices"
)

// Edits is one function's list of pending code changes. A pass reads
// the function and queues what it wants changed; Apply then rewrites the
// function in one pass, so no pass edits a block it is ranging over.
//
//   - Before inserts instructions before an anchor. Insertions at one
//     anchor land in queue order.
//   - After inserts a group after an anchor. A later group at the same
//     anchor lands between the anchor and the earlier groups; each group
//     keeps its own order.
//   - Remove deletes an anchor; what is queued around it still lands.
//   - Replace makes every operand and phi edge that reads a value read
//     another, in queued instructions too.
//
// An anchor is an instruction of the function, not one queued on the
// list. Apply does not renumber: until Func.Renumber, every original
// instruction keeps its ID and every inserted one reads 0.
type Edits struct {
	f      *Func
	at     map[*Instr]*anchorEdits
	growth map[*Block]int // each touched block's change in length
	repl   map[Value]Value
}

// anchorEdits is what is queued at one anchor.
type anchorEdits struct {
	before, after []*Instr
	remove        bool
}

// NewEdits returns an empty edit list for f.
func NewEdits(f *Func) *Edits {
	return &Edits{
		f:      f,
		at:     make(map[*Instr]*anchorEdits),
		growth: make(map[*Block]int),
		repl:   make(map[Value]Value),
	}
}

func (e *Edits) anchor(in *Instr, growth int) *anchorEdits {
	a := e.at[in]
	if a == nil {
		a = &anchorEdits{}
		e.at[in] = a
	}
	e.growth[in.Block] += growth
	return a
}

// Before queues ins, in order, before anchor.
func (e *Edits) Before(anchor *Instr, ins ...*Instr) {
	if len(ins) > 0 {
		a := e.anchor(anchor, len(ins))
		a.before = append(a.before, ins...)
	}
}

// After queues ins, in order, right after anchor.
func (e *Edits) After(anchor *Instr, ins ...*Instr) {
	if len(ins) > 0 {
		a := e.anchor(anchor, len(ins))
		a.after = slices.Concat(ins, a.after)
	}
}

// Remove queues the deletion of anchor.
func (e *Edits) Remove(anchor *Instr) {
	if a := e.anchor(anchor, 0); !a.remove {
		a.remove = true
		e.growth[anchor.Block]--
	}
}

// Replace queues the rewrite of every use of old to new. new must not
// itself be replaced.
func (e *Edits) Replace(old, new Value) { e.repl[old] = new }

// Apply makes the queued changes: it rebuilds each block that holds an
// anchor once, at its final length, then reads every operand of the
// function through the replacement table. It panics if an anchor is not
// in the function, which is always a pass bug.
func (e *Edits) Apply() {
	found := 0
	for _, b := range e.f.Blocks {
		if growth, touched := e.growth[b]; touched {
			out := make([]*Instr, 0, len(b.Instrs)+growth)
			for _, in := range b.Instrs {
				a := e.at[in]
				if a == nil {
					out = append(out, in)
					continue
				}
				found++
				for _, x := range a.before {
					x.Block = b
				}
				out = append(out, a.before...)
				if a.remove {
					in.Block = nil
				} else {
					out = append(out, in)
				}
				for _, x := range a.after {
					x.Block = b
				}
				out = append(out, a.after...)
			}
			b.Instrs = out
		}
		if len(e.repl) > 0 {
			for _, in := range b.Instrs {
				e.rewrite(in)
			}
		}
	}
	if found != len(e.at) {
		panic(fmt.Sprintf("ir: Edits.Apply: %d anchors not in @%s", len(e.at)-found, e.f.FName))
	}
}

// rewrite reads in's operands and phi edges through the replacement
// table.
func (e *Edits) rewrite(in *Instr) {
	for i, a := range in.Args {
		if v, ok := e.repl[a]; ok {
			in.Args[i] = v
		}
	}
	for i := range in.Incoming {
		if v, ok := e.repl[in.Incoming[i].Val]; ok {
			in.Incoming[i].Val = v
		}
	}
}

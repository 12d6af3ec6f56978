// Package bbcache builds and caches the pre-decoded basic-block form of the
// kernel image that the core's block dispatch (internal/cpu) runs. The text is decoded exactly once per image version: every maximal
// straight-line run of instructions (gap/control to gap/control) is decoded
// into one dense []isa.DOp arena slice, and every *leader* — a function
// entry, a branch/jump target, a fallthrough past a control instruction, or
// the first slot after a gap — gets a Block that is a suffix view into its
// run's slice. Suffix sharing keeps memory linear in the text size no matter
// how many leaders land inside one run, and it gives superblocks for free:
// a block decoded at a function entry runs *through* interior labels all the
// way to the next control transfer.
//
// Blocks are chained at build time: an unconditional jump/call stores a
// direct *Block pointer to its target, a conditional branch stores both
// arms. The dispatch loop follows those pointers without re-entering the
// PC-indexed lookup (the "threaded" in threaded code). Dynamic targets
// (ret, icall, ijmp) and targets outside the decoded text fall back to
// BlockAt, and on a miss the core decodes the single word at the PC.
//
// A Program is immutable once built and carries the kimage text version it
// was decoded from; patching text bumps the version, which makes every
// cached Program stale at once (internal/kimage.Image.Decoded rebuilds on
// demand). That is the entire invalidation protocol: there is no partial
// invalidation to get wrong.
package bbcache

import "repro/internal/isa"

// Block is one decoded superblock: a dense instruction stream ending at the
// first control transfer (or at a text gap / undecodable word, in which case
// it simply has no terminator and dispatch resumes at the next PC).
type Block struct {
	// Ops is the decoded stream; the final op is the terminator iff its
	// kind IsControl. Ops aliases the run arena shared with every other
	// block in the same straight-line run.
	Ops []isa.DOp

	// Succ is the pre-resolved target block of an unconditional Jmp/Call
	// terminator; SuccTaken/SuccFall are the two arms of a Branch. Nil
	// when the target is outside the decoded text (the dispatch loop falls
	// back to BlockAt, then to decoding the single word at the target).
	Succ      *Block
	SuccTaken *Block
	SuccFall  *Block

	// FallPC is the VA immediately after the terminator: the branch
	// not-taken target, the call/icall return address, and the wrong-path
	// seed for a mispredicted not-taken branch.
	FallPC uint64
}

// Program is the decoded form of one kernel text version.
type Program struct {
	base    uint64
	version uint64
	// blocks is indexed by instruction slot ((va-base)/InstBytes); only
	// leader slots are non-nil. Dense indexing keeps BlockAt to two
	// compares and a load — it is on the block-transition path.
	blocks []*Block

	nBlocks int
	nOps    int
}

// Build decodes the linked text (flat indexed by (va-base)/InstBytes, valid
// marking linked slots, as kimage.Image holds them) into a Program. entries
// lists additional guaranteed leaders (function entry VAs). version is the
// kimage text version the decode is valid for.
func Build(base uint64, flat []isa.Inst, valid []bool, entries []uint64, version uint64) *Program {
	n := len(flat)
	p := &Program{
		base:    base,
		version: version,
		blocks:  make([]*Block, n),
	}

	// Pass 1: mark leaders. A slot leads a block if it is a function
	// entry, the first valid slot after a gap, a control-transfer target,
	// or the fallthrough after a control instruction.
	leader := make([]bool, n)
	for _, va := range entries {
		if slot, ok := p.slotOf(va); ok && valid[slot] {
			leader[slot] = true
		}
	}
	for i := 0; i < n; i++ {
		if !valid[i] {
			continue
		}
		if i == 0 || !valid[i-1] {
			leader[i] = true
		}
		in := &flat[i]
		switch in.Op {
		case isa.OpBranch, isa.OpJmp, isa.OpCall:
			if slot, ok := p.slotOf(in.Target); ok && valid[slot] {
				leader[slot] = true
			}
		}
		if (in.IsControl() || in.Op == isa.OpHalt) && i+1 < n && valid[i+1] {
			leader[i+1] = true
		}
	}

	// Pass 2: decode each maximal straight-line run once into an arena
	// slice, then hang a suffix Block off every leader inside it. A run
	// ends at (and includes) the first control instruction, or ends early
	// at a gap or an undecodable word — DBad ops are never emitted, so the
	// dispatch loop cannot execute one (the core's single-word decode
	// faults on it at its PC).
	for s := 0; s < n; {
		if !valid[s] {
			s++
			continue
		}
		e := s // exclusive end of the run
		badEnd := false
		for e < n && valid[e] {
			d := isa.DecodeInst(&flat[e], 0)
			if d.Kind == isa.DBad {
				badEnd = true
				break
			}
			e++
			if d.Kind.IsControl() {
				break
			}
		}
		if e == s {
			// Leading undecodable word: no block can start here.
			s++
			continue
		}
		ops := make([]isa.DOp, e-s)
		for i := s; i < e; i++ {
			pc := base + uint64(i)*isa.InstBytes
			ops[i-s] = isa.DecodeInst(&flat[i], pc)
			ops[i-s].LineCross = i > s && (pc>>6) != ((pc-isa.InstBytes)>>6)
		}
		for i := s; i < e; i++ {
			if !leader[i] {
				continue
			}
			blk := &Block{
				Ops:    ops[i-s:],
				FallPC: base + uint64(e)*isa.InstBytes,
			}
			p.blocks[i] = blk
			p.nBlocks++
			p.nOps += len(blk.Ops)
		}
		if badEnd {
			e++ // skip the undecodable word that ended the run
		}
		s = e
	}

	// Pass 3: chain static successors. Every block in a run shares the
	// run's terminator, so each resolves the same targets.
	for _, blk := range p.blocks {
		if blk == nil || len(blk.Ops) == 0 {
			continue
		}
		term := &blk.Ops[len(blk.Ops)-1]
		switch term.Kind {
		case isa.DJmp, isa.DCall:
			blk.Succ = p.BlockAt(term.Target)
		case isa.DBranch:
			blk.SuccTaken = p.BlockAt(term.Target)
			blk.SuccFall = p.BlockAt(blk.FallPC)
		}
	}
	return p
}

func (p *Program) slotOf(va uint64) (int, bool) {
	if va < p.base || va%isa.InstBytes != 0 {
		return 0, false
	}
	slot := (va - p.base) / isa.InstBytes
	if slot >= uint64(len(p.blocks)) {
		return 0, false
	}
	return int(slot), true
}

// BlockAt returns the decoded block starting at pc, or nil when pc is not a
// decoded leader (the caller decodes one instruction at a time until the
// next leader).
func (p *Program) BlockAt(pc uint64) *Block {
	idx := (pc - p.base) / isa.InstBytes
	if pc%isa.InstBytes != 0 || idx >= uint64(len(p.blocks)) {
		return nil
	}
	return p.blocks[idx]
}

// Version reports the kimage text version this program was decoded from.
func (p *Program) Version() uint64 { return p.version }

// NumBlocks reports how many leader blocks were decoded.
func (p *Program) NumBlocks() int { return p.nBlocks }

// NumOps reports the total decoded op count across blocks (suffix views
// counted in full; the arena itself is linear in the text size).
func (p *Program) NumOps() int { return p.nOps }

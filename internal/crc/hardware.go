package crc

import (
	"fmt"
	"hash/crc32"
)

// Hardware is the engine that runs on CPU instructions where it can.
// For IEEE and Castagnoli it delegates to the standard library's
// hash/crc32, which uses CLMUL folding for IEEE and the SSE4.2 / ARMv8
// CRC32C instructions for Castagnoli where the CPU has them. Any other
// reflected 32-bit generator, the paper's CRC-32K among them, runs a
// carry-less-multiply fold (foldCLMUL) on amd64 CPUs with PCLMULQDQ and
// SSE4.1, with the slicing-by-16 loop for the tail and short inputs;
// elsewhere it runs that loop alone, so construction succeeds but
// nothing is offloaded. Accelerated reports which case an engine
// landed in, and New picks Hardware only for the accelerated ones.
type Hardware struct {
	params Params
	tab    *crc32.Table     // the stdlib's table, for IEEE and Castagnoli only
	slices *[16][256]uint32 // the slicing tables, for every other generator
	fold   *foldConsts      // the fold's constants, nil where it cannot run
	init   uint32           // the reflected initial state Init returns
}

var _ Engine = (*Hardware)(nil)

// NewHardware builds the hardware engine. It builds the stdlib's table
// or the slicing tables, never both.
func NewHardware(p Params) (*Hardware, error) {
	if p.Poly.Width() != 32 {
		return nil, fmt.Errorf("crc: hardware engine requires width 32, got %d", p.Poly.Width())
	}
	if !p.RefIn || !p.RefOut {
		return nil, fmt.Errorf("crc: hardware engine requires reflected input and output")
	}
	e := &Hardware{params: p, init: reverseBits(p.Init, 32)}
	if rev := uint32(p.Poly.Reversed()); stdlibAccelerated(rev) {
		e.tab = crc32.MakeTable(rev)
	} else {
		e.slices = new([16][256]uint32)
		fillSlicingTables(e.slices, rev)
		if foldAvailable {
			e.fold = newFoldConsts(e.slices, uint32(p.Poly.Normal()))
		}
	}
	return e, nil
}

// stdlibAccelerated reports whether hash/crc32 has an architecture
// fast path for the reflected generator rev.
func stdlibAccelerated(rev uint32) bool {
	return rev == crc32.IEEE || rev == crc32.Castagnoli
}

// accelerated reports whether a Hardware engine for the parameter set
// would be accelerated, without building its tables: a reflected
// 32-bit set whose generator hash/crc32 accelerates, or any such set
// where the fold can run.
func accelerated(p Params) bool {
	if p.Poly.Width() != 32 || !p.RefIn || !p.RefOut {
		return false
	}
	return foldAvailable || stdlibAccelerated(uint32(p.Poly.Reversed()))
}

// Accelerated reports whether the engine has a fast path: hash/crc32's
// for IEEE and Castagnoli, the fold for any other generator. For the
// stdlib's generators whether the running CPU provides the
// instructions is the stdlib's runtime decision.
func (e *Hardware) Accelerated() bool { return e.tab != nil || e.fold != nil }

// Params implements Engine.
func (e *Hardware) Params() Params { return e.params }

// Init implements Engine. The state is held in reflected form like
// every reflected engine in this package; NewHardware reflects the
// initial value once. (Reflecting it here, inlined into Checksum beside
// crc32.Update's complements, sends go1.24.0's arm64 compiler into an
// endless prove pass.)
func (e *Hardware) Init() uint32 { return e.init }

// Finalize implements Engine.
func (e *Hardware) Finalize(state uint32) uint32 { return state ^ e.params.XorOut }

// Update implements Engine. hash/crc32's Update is the same reflected
// table recurrence wrapped in complements — Update(c, tab, p) computes
// ^update(^c, p) over the raw reflected register — so un-complementing
// at the boundary yields exactly this package's pure reflected state,
// for any Init/XorOut convention. The fold works on that state
// directly: it takes the whole 16-byte blocks of an input of 64 bytes
// or more, and the slicing loop takes the rest.
func (e *Hardware) Update(state uint32, data []byte) uint32 {
	if e.tab != nil {
		return ^crc32.Update(^state, e.tab, data)
	}
	if e.fold != nil && len(data) >= 64 {
		n := len(data) &^ 15
		state = foldCLMUL(state, data[:n], e.fold)
		data = data[n:]
	}
	return slicingUpdate(state, e.slices, data)
}

// Checksum implements Engine.
func (e *Hardware) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

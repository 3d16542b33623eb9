package crc

import (
	"fmt"
	"hash/crc32"
)

// Hardware is the engine that runs on CPU instructions where it can.
// On amd64 CPUs with PCLMULQDQ it runs a carry-less-multiply fold
// (foldCLMUL) for reflected 32-bit generators, with one byte table for
// inputs under 16 bytes. Where the CPU also has AVX-512 VPCLMULQDQ the
// fold's 512-bit loops serve every generator, IEEE and Castagnoli
// included. Elsewhere IEEE and Castagnoli go to the standard library's
// hash/crc32 (CLMUL folding for IEEE, the SSE4.2 / ARMv8 CRC32C
// instructions for Castagnoli, where the CPU has them), which is as fast
// as the 128-bit fold; any other generator folds where the CPU has
// PCLMULQDQ and otherwise runs the slicing-by-16 loop, so construction
// succeeds but nothing is offloaded. Accelerated reports which case an
// engine landed in, and New picks Hardware only for the accelerated
// ones.
type Hardware struct {
	params Params
	tab    *[256]uint32     // the byte table: hash/crc32's, or the fold's for short inputs
	slices *[16][256]uint32 // the slicing tables, where neither runs
	fold   *foldConsts      // the fold's constants, nil where it does not run
	init   uint32           // the reflected initial state Init returns
}

var _ Engine = (*Hardware)(nil)

// NewHardware builds the hardware engine for the running CPU: the
// fold's constants and one byte table where the fold runs, hash/crc32's
// table where it delegates, the slicing tables otherwise.
func NewHardware(p Params) (*Hardware, error) {
	return newHardware(p, foldAvailable, foldWide)
}

// newHardware builds the hardware engine for a CPU that has the fold
// (fold) and its 512-bit loops (wide) or not.
func newHardware(p Params, fold, wide bool) (*Hardware, error) {
	if p.Poly.Width() != 32 {
		return nil, fmt.Errorf("crc: hardware engine requires width 32, got %d", p.Poly.Width())
	}
	if !p.RefIn || !p.RefOut {
		return nil, fmt.Errorf("crc: hardware engine requires reflected input and output")
	}
	e := &Hardware{params: p, init: reverseBits(p.Init, 32)}
	rev := uint32(p.Poly.Reversed())
	stdlib := stdlibAccelerated(rev)
	if stdlib {
		// hash/crc32 caches its IEEE and Castagnoli tables, and each is
		// this package's reflected byte table.
		e.tab = (*[256]uint32)(crc32.MakeTable(rev))
	}
	switch {
	case fold && (wide || !stdlib):
		if e.tab == nil {
			e.tab = new([256]uint32)
			fillByteTable(e.tab, rev)
		}
		e.fold = newFoldConsts(e.tab, uint32(p.Poly.Normal()))
	case !stdlib:
		e.slices = new([16][256]uint32)
		fillSlicingTables(e.slices, rev)
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

// Accelerated reports whether the engine has a fast path: the fold, or
// hash/crc32's for IEEE and Castagnoli. For the stdlib's generators
// whether the running CPU provides the instructions is the stdlib's
// runtime decision.
func (e *Hardware) Accelerated() bool { return e.slices == nil }

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

// Update implements Engine. The fold works on this package's pure
// reflected state directly and takes any input of 16 bytes or more
// whole; shorter ones take the byte table. hash/crc32's Update is the
// same reflected table recurrence wrapped in complements — Update(c,
// tab, p) computes ^update(^c, p) over the raw reflected register — so
// un-complementing at the boundary yields exactly the pure state, for
// any Init/XorOut convention.
func (e *Hardware) Update(state uint32, data []byte) uint32 {
	switch {
	case e.fold != nil && len(data) >= 16:
		return foldCLMUL(state, data, e.fold)
	case e.fold != nil:
		return byteUpdate(state, e.tab, data)
	case e.slices != nil:
		return slicingUpdate(state, e.slices, data)
	}
	return ^crc32.Update(^state, (*crc32.Table)(e.tab), data)
}

// Checksum implements Engine.
func (e *Hardware) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

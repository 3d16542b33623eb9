package crc

import (
	"fmt"
	"hash/crc32"
)

// Hardware delegates to the standard library's hash/crc32, which uses
// CLMUL folding for the IEEE polynomial and the SSE4.2 / ARMv8 CRC32C
// instructions for Castagnoli where the CPU has them. For any other
// reflected 32-bit generator the delegate is hash/crc32's portable
// byte-table loop, so construction succeeds but nothing is offloaded —
// Accelerated reports which case an engine landed in, and New picks
// Hardware only for the accelerated generators.
type Hardware struct {
	params Params
	tab    *crc32.Table
	init   uint32 // the reflected initial state Init returns
	accel  bool
}

var _ Engine = (*Hardware)(nil)

// NewHardware builds the stdlib-delegating engine.
func NewHardware(p Params) (*Hardware, error) {
	if p.Poly.Width() != 32 {
		return nil, fmt.Errorf("crc: hardware engine requires width 32, got %d", p.Poly.Width())
	}
	if !p.RefIn || !p.RefOut {
		return nil, fmt.Errorf("crc: hardware engine requires reflected input and output")
	}
	return &Hardware{
		params: p,
		tab:    crc32.MakeTable(uint32(p.Poly.Reversed())),
		init:   reverseBits(p.Init, 32),
		accel:  accelerated(p),
	}, nil
}

// accelerated reports whether hash/crc32 has an architecture fast path
// for the parameter set's generator, without building its table.
func accelerated(p Params) bool {
	rev := uint32(p.Poly.Reversed())
	return rev == crc32.IEEE || rev == crc32.Castagnoli
}

// Accelerated reports whether hash/crc32 has an architecture fast path
// for this generator (IEEE and Castagnoli); whether the running CPU
// actually provides the instructions is the stdlib's runtime decision.
func (e *Hardware) Accelerated() bool { return e.accel }

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
// for any Init/XorOut convention.
func (e *Hardware) Update(state uint32, data []byte) uint32 {
	return ^crc32.Update(^state, e.tab, data)
}

// Checksum implements Engine.
func (e *Hardware) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

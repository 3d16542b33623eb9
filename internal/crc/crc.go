// Package crc implements parameterised CRC computation for widths up to
// 32 bits with four engines: bit-at-a-time (the reference), byte-wise
// table lookup, slicing-by-16, and a hardware engine that folds reflected
// 32-bit generators with carry-less multiplies on amd64: every one of
// them, IEEE and Castagnoli included, with 512-bit VPCLMULQDQ loops
// where the CPU has AVX-512, and every one but those two with PCLMULQDQ
// elsewhere; IEEE and Castagnoli otherwise go to hash/crc32
// (CLMUL/SSE4.2 where the platform has them). Algorithms follow the Rocksoft model (init / reflect-in /
// reflect-out / xor-out) so every catalogued standard can be expressed;
// the engines are cross-checked against each other, against hash/crc32
// and against GF(2) polynomial arithmetic in the tests.
package crc

import (
	"fmt"
	"math/bits"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/poly"
)

// Params describes a CRC algorithm in the Rocksoft parameter model.
type Params struct {
	Name   string // catalogue name, informational
	Poly   poly.P // generator polynomial
	Init   uint32 // initial register value (non-reflected convention)
	RefIn  bool   // process input bytes least-significant-bit first
	RefOut bool   // bit-reverse the register before XorOut
	XorOut uint32 // final XOR value
	Check  uint32 // CRC of the ASCII bytes "123456789", 0 if unknown
}

// Pure returns the parameter set that makes the CRC a plain polynomial
// remainder: crc(data) = data(x) * x^width mod G(x). This is the convention
// under which error-detection analysis (syndromes, weights, Hamming
// distance) is performed; reflection and init/xor values do not change
// which error patterns are detectable.
func Pure(p poly.P) Params {
	return Params{Name: "pure-" + p.String(), Poly: p}
}

// Mask returns the width-bit mask for the parameter set.
func (p Params) Mask() uint32 {
	w := p.Poly.Width()
	if w == 32 {
		return ^uint32(0)
	}
	return 1<<uint(w) - 1
}

// Engine computes CRCs for one parameter set.
type Engine interface {
	// Params returns the algorithm parameters the engine implements.
	Params() Params
	// Checksum returns the CRC of data.
	Checksum(data []byte) uint32
	// Update continues a CRC over more data; seed it with Init()...
	// Update(Init(), data) == Checksum(data) and updates compose:
	// Update(Update(s, a), b) == Update(s, append(a, b...)).
	Update(state uint32, data []byte) uint32
	// Init returns the initial streaming state.
	Init() uint32
	// Finalize converts a streaming state into the externally visible CRC.
	Finalize(state uint32) uint32
}

// reverseBits reverses the low w bits of v.
func reverseBits(v uint32, w int) uint32 {
	return bits.Reverse32(v) >> uint(32-w)
}

// Bitwise is the reference engine: one bit at a time, valid for every
// width 1..32 and every reflection combination.
type Bitwise struct {
	params Params
}

var _ Engine = (*Bitwise)(nil)

// NewBitwise returns the reference engine for the given parameters.
func NewBitwise(p Params) *Bitwise { return &Bitwise{params: p} }

// Params implements Engine.
func (e *Bitwise) Params() Params { return e.params }

// Init implements Engine.
func (e *Bitwise) Init() uint32 { return e.params.Init & e.params.Mask() }

// Finalize implements Engine.
func (e *Bitwise) Finalize(state uint32) uint32 {
	w := e.params.Poly.Width()
	if e.params.RefOut {
		state = reverseBits(state, w)
	}
	return (state ^ e.params.XorOut) & e.params.Mask()
}

// Update implements Engine.
func (e *Bitwise) Update(state uint32, data []byte) uint32 {
	w := e.params.Poly.Width()
	gen := uint32(e.params.Poly.Normal())
	mask := e.params.Mask()
	topBit := uint32(1) << uint(w-1)
	for _, b := range data {
		if e.params.RefIn {
			b = bits.Reverse8(b)
		}
		for bit := 7; bit >= 0; bit-- {
			in := uint32(b>>uint(bit)) & 1
			top := (state & topBit) != 0
			state = (state << 1) & mask
			if top != (in != 0) {
				state ^= gen
			}
		}
	}
	return state
}

// Checksum implements Engine.
func (e *Bitwise) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

// Table is a 256-entry lookup-table engine for widths that are a multiple of
// 8. It requires RefIn == RefOut (every catalogued standard in this
// repository satisfies that).
type Table struct {
	params Params
	tab    [256]uint32
	shift  uint // w-8, for the normal (non-reflected) form
}

var _ Engine = (*Table)(nil)

// NewTable builds the lookup-table engine.
func NewTable(p Params) (*Table, error) {
	w := p.Poly.Width()
	if w%8 != 0 {
		return nil, fmt.Errorf("crc: table engine requires width divisible by 8, got %d", w)
	}
	if p.RefIn != p.RefOut {
		return nil, fmt.Errorf("crc: table engine requires RefIn == RefOut")
	}
	t := &Table{params: p, shift: uint(w - 8)}
	if p.RefIn {
		rev := uint32(p.Poly.Reversed())
		for i := 0; i < 256; i++ {
			c := uint32(i)
			for k := 0; k < 8; k++ {
				if c&1 != 0 {
					c = (c >> 1) ^ rev
				} else {
					c >>= 1
				}
			}
			t.tab[i] = c
		}
	} else {
		gen := uint32(p.Poly.Normal())
		mask := p.Mask()
		top := uint32(1) << uint(w-1)
		for i := 0; i < 256; i++ {
			c := uint32(i) << t.shift
			for k := 0; k < 8; k++ {
				if c&top != 0 {
					c = ((c << 1) & mask) ^ gen
				} else {
					c = (c << 1) & mask
				}
			}
			t.tab[i] = c
		}
	}
	return t, nil
}

// Params implements Engine.
func (e *Table) Params() Params { return e.params }

// Init implements Engine. For reflected algorithms the streaming state is
// held in reflected form so the byte loop is branch-free.
func (e *Table) Init() uint32 {
	init := e.params.Init & e.params.Mask()
	if e.params.RefIn {
		return reverseBits(init, e.params.Poly.Width())
	}
	return init
}

// Finalize implements Engine.
func (e *Table) Finalize(state uint32) uint32 {
	// Reflected engines keep the register pre-reflected, so RefOut is a
	// no-op there; normal engines never reflect.
	return (state ^ e.params.XorOut) & e.params.Mask()
}

// Update implements Engine.
func (e *Table) Update(state uint32, data []byte) uint32 {
	if e.params.RefIn {
		for _, b := range data {
			state = (state >> 8) ^ e.tab[byte(state)^b]
		}
		return state
	}
	for _, b := range data {
		state = ((state << 8) & e.params.Mask()) ^ e.tab[byte(state>>e.shift)^b]
	}
	return state
}

// Checksum implements Engine.
func (e *Table) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

// New returns the fastest engine the parameter set admits on structural
// grounds: the hardware engine where it is accelerated (every reflected
// 32-bit set where the fold can run; elsewhere IEEE and Castagnoli
// through hash/crc32, whose software fallback is itself slicing-by-8, so
// this never loses), then slicing-by-16, then byte-table, falling back
// to the reference bitwise engine. It is crchash's Kind Auto.
func New(p Params) Engine {
	if accelerated(p) {
		if h, err := NewHardware(p); err == nil {
			return h
		}
	}
	if s, err := NewSlicing16(p); err == nil {
		return s
	}
	if t, err := NewTable(p); err == nil {
		return t
	}
	return NewBitwise(p)
}

// RemainderCRC computes data(x) * x^width mod G(x) via gf2 arithmetic — an
// independent mathematical definition of the pure CRC used to validate the
// engines. Data bytes are interpreted MSB-first as the paper (and every
// network standard) transmits them.
func RemainderCRC(p poly.P, data []byte) uint32 {
	return uint32(remainder(p.Full(), p.Width(), data))
}

func remainder(g gf2.Poly, width int, data []byte) gf2.Poly {
	var rem gf2.Poly
	top := gf2.Poly(1) << uint(width)
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			rem <<= 1
			if b&(1<<uint(bit)) != 0 {
				rem |= 1
			}
			if rem&top != 0 {
				rem ^= g
			}
		}
	}
	// Multiply by x^width (append zero FCS field).
	for i := 0; i < width; i++ {
		rem <<= 1
		if rem&top != 0 {
			rem ^= g
		}
	}
	return rem
}

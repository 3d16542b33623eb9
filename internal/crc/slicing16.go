package crc

import (
	"encoding/binary"
	"fmt"
)

// Slicing16 is the slicing-by-16 engine for reflected 32-bit algorithms,
// processing sixteen bytes per step. The sixteen 256-entry tables
// advance each byte's contribution past the whole 16-byte block in one
// lookup, so the sixteen loads per block are independent and the XOR
// reduction is the only serial chain.
type Slicing16 struct {
	params Params
	tab    [16][256]uint32
}

var _ Engine = (*Slicing16)(nil)

// NewSlicing16 builds the slicing-by-16 engine.
func NewSlicing16(p Params) (*Slicing16, error) {
	if p.Poly.Width() != 32 {
		return nil, fmt.Errorf("crc: slicing-by-16 requires width 32, got %d", p.Poly.Width())
	}
	if !p.RefIn || !p.RefOut {
		return nil, fmt.Errorf("crc: slicing-by-16 requires reflected input and output")
	}
	e := &Slicing16{params: p}
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
		e.tab[0][i] = c
	}
	for i := 0; i < 256; i++ {
		c := e.tab[0][i]
		for k := 1; k < 16; k++ {
			c = e.tab[0][byte(c)] ^ (c >> 8)
			e.tab[k][i] = c
		}
	}
	return e, nil
}

// Params implements Engine.
func (e *Slicing16) Params() Params { return e.params }

// Init implements Engine.
func (e *Slicing16) Init() uint32 { return reverseBits(e.params.Init, 32) }

// Finalize implements Engine.
func (e *Slicing16) Finalize(state uint32) uint32 { return state ^ e.params.XorOut }

// Update implements Engine.
func (e *Slicing16) Update(state uint32, data []byte) uint32 {
	for len(data) >= 16 {
		s := state ^ binary.LittleEndian.Uint32(data)
		state = e.tab[15][byte(s)] ^
			e.tab[14][byte(s>>8)] ^
			e.tab[13][byte(s>>16)] ^
			e.tab[12][byte(s>>24)] ^
			e.tab[11][data[4]] ^
			e.tab[10][data[5]] ^
			e.tab[9][data[6]] ^
			e.tab[8][data[7]] ^
			e.tab[7][data[8]] ^
			e.tab[6][data[9]] ^
			e.tab[5][data[10]] ^
			e.tab[4][data[11]] ^
			e.tab[3][data[12]] ^
			e.tab[2][data[13]] ^
			e.tab[1][data[14]] ^
			e.tab[0][data[15]]
		data = data[16:]
	}
	for _, b := range data {
		state = (state >> 8) ^ e.tab[0][byte(state)^b]
	}
	return state
}

// Checksum implements Engine.
func (e *Slicing16) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

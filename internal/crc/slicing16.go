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
	fillSlicingTables(&e.tab, uint32(p.Poly.Reversed()))
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
	return slicingUpdate(state, &e.tab, data)
}

// Checksum implements Engine.
func (e *Slicing16) Checksum(data []byte) uint32 {
	return e.Finalize(e.Update(e.Init(), data))
}

// fillByteTable builds the byte table of the reflected generator rev:
// t[i] advances byte i past one step of the recurrence. The table is
// linear over GF(2) in its index, so only the entries of the eight
// single-bit bytes are stepped out; every other entry is the XOR of two
// already filled.
func fillByteTable(t *[256]uint32, rev uint32) {
	for b := 0; b < 8; b++ {
		c := uint32(1) << b
		for range 8 {
			c = c>>1 ^ rev&-(c&1)
		}
		t[1<<b] = c
	}
	fillByLinearity(t)
}

// fillSlicingTables builds the slicing-by-16 tables of the reflected
// generator rev into a zeroed tab: tab[0] is the byte table and
// tab[k][i] advances byte i past k more zero bytes, filled by linearity
// as fillByteTable fills the first.
func fillSlicingTables(tab *[16][256]uint32, rev uint32) {
	fillByteTable(&tab[0], rev)
	for k := 1; k < len(tab); k++ {
		for b := 0; b < 8; b++ {
			c := tab[k-1][1<<b]
			tab[k][1<<b] = tab[0][byte(c)] ^ c>>8
		}
		fillByLinearity(&tab[k])
	}
}

// fillByLinearity fills every entry of a table linear in its index from
// the entries of the single-bit indexes: the entries below each power
// of two b, XORed with entry b, give the entries from b to 2b.
func fillByLinearity(t *[256]uint32) {
	for b := 2; b < 256; b <<= 1 {
		tb := t[b]
		for j := 1; j < b; j++ {
			t[b+j] = tb ^ t[j]
		}
	}
}

// slicingUpdate advances the pure reflected state over data sixteen
// bytes a step, then a byte at a time: the loop of Slicing16, and of
// Hardware where neither hash/crc32 nor the fold runs.
func slicingUpdate(state uint32, tab *[16][256]uint32, data []byte) uint32 {
	for len(data) >= 16 {
		s := state ^ binary.LittleEndian.Uint32(data)
		state = tab[15][byte(s)] ^
			tab[14][byte(s>>8)] ^
			tab[13][byte(s>>16)] ^
			tab[12][byte(s>>24)] ^
			tab[11][data[4]] ^
			tab[10][data[5]] ^
			tab[9][data[6]] ^
			tab[8][data[7]] ^
			tab[7][data[8]] ^
			tab[6][data[9]] ^
			tab[5][data[10]] ^
			tab[4][data[11]] ^
			tab[3][data[12]] ^
			tab[2][data[13]] ^
			tab[1][data[14]] ^
			tab[0][data[15]]
		data = data[16:]
	}
	return byteUpdate(state, &tab[0], data)
}

// byteUpdate advances the pure reflected state over data a byte at a
// time through the byte table tab.
func byteUpdate(state uint32, tab *[256]uint32, data []byte) uint32 {
	for _, b := range data {
		state = (state >> 8) ^ tab[byte(state)^b]
	}
	return state
}

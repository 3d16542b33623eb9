package crc

import (
	"fmt"
	"sort"
	"sync"

	"koopmancrc/internal/poly"
)

// Catalogued standard algorithms. Check values are the CRCs of the ASCII
// string "123456789" from the public CRC catalogues and are asserted in the
// tests.
var (
	// CRC32IEEE is the IEEE 802.3 / ISO-HDLC CRC-32 used by Ethernet, gzip
	// and zip (hash/crc32's ChecksumIEEE).
	CRC32IEEE = Params{
		Name: "CRC-32/IEEE-802.3", Poly: poly.IEEE8023,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0xCBF43926,
	}

	// CRC32C is the Castagnoli CRC-32C adopted by iSCSI (RFC 3720), SCTP
	// and ext4 — the polynomial this paper's §4.3 proposes to improve upon.
	CRC32C = Params{
		Name: "CRC-32C/iSCSI", Poly: poly.CastagnoliISCSI,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0xE3069283,
	}

	// CRC32K wraps the paper's 0xBA0DC66B in the same framing conventions
	// as CRC-32/CRC-32C (hash/crc32's Koopman table).
	CRC32K = Params{
		Name: "CRC-32K/Koopman", Poly: poly.Koopman32K,
		Init: 0xFFFFFFFF, RefIn: true, RefOut: true, XorOut: 0xFFFFFFFF,
		Check: 0x2D3DD0AE,
	}

	// CRC16CCITTFalse is CRC-16/CCITT-FALSE (non-reflected 0x1021).
	CRC16CCITTFalse = Params{
		Name: "CRC-16/CCITT-FALSE", Poly: poly.CCITT16,
		Init: 0xFFFF, Check: 0x29B1,
	}

	// CRC16XModem is CRC-16/XMODEM (non-reflected 0x1021, zero init).
	CRC16XModem = Params{
		Name: "CRC-16/XMODEM", Poly: poly.CCITT16,
		Check: 0x31C3,
	}

	// CRC16ARC is CRC-16/ARC (reflected 0x8005).
	CRC16ARC = Params{
		Name: "CRC-16/ARC", Poly: poly.ARC16,
		RefIn: true, RefOut: true, Check: 0xBB3D,
	}

	// CRC8SMBus is CRC-8 (SMBus PEC, non-reflected 0x07).
	CRC8SMBus = Params{
		Name: "CRC-8/SMBUS", Poly: poly.ATM8,
		Check: 0xF4,
	}

	// CRC8DARC is CRC-8/DARC (reflected 0x39).
	CRC8DARC = Params{
		Name: "CRC-8/DARC", Poly: poly.DARC8,
		RefIn: true, RefOut: true, Check: 0x15,
	}
)

// registered holds user-added algorithms (see Register), guarded for
// concurrent registration and lookup.
var (
	regMu      sync.RWMutex
	registered []Params
)

// builtin returns the compiled-in standard parameter sets.
func builtin() []Params {
	return []Params{
		CRC32IEEE, CRC32C, CRC32K,
		CRC16CCITTFalse, CRC16XModem, CRC16ARC,
		CRC8SMBus, CRC8DARC,
	}
}

// registerCheckInput is the catalogue convention: every Check value is
// the CRC of these nine ASCII bytes.
var registerCheckInput = []byte("123456789")

// Register adds a user-defined algorithm to the catalogue under its
// Name. Names must be non-empty and unique across built-in and
// previously registered algorithms. A non-zero Check value is verified
// against the reference bitwise engine before the algorithm is accepted,
// so a mis-transcribed parameter set fails loudly at registration
// instead of silently corrupting checksums.
func Register(p Params) error {
	if p.Name == "" {
		return fmt.Errorf("crc: Register needs a non-empty Name")
	}
	if p.Poly.IsZero() {
		return fmt.Errorf("crc: Register %q: no generator polynomial", p.Name)
	}
	if p.Check != 0 {
		if got := NewBitwise(p).Checksum(registerCheckInput); got != p.Check {
			return fmt.Errorf("crc: Register %q: check value %#08x, but parameters compute %#08x",
				p.Name, p.Check, got)
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, q := range builtin() {
		if q.Name == p.Name {
			return fmt.Errorf("crc: algorithm %q is already catalogued", p.Name)
		}
	}
	for _, q := range registered {
		if q.Name == p.Name {
			return fmt.Errorf("crc: algorithm %q is already registered", p.Name)
		}
	}
	registered = append(registered, p)
	return nil
}

// Catalogue returns all catalogued parameter sets — built-in standards
// plus user registrations — sorted by name.
func Catalogue() []Params {
	all := builtin()
	regMu.RLock()
	all = append(all, registered...)
	regMu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Lookup finds a catalogued algorithm by name. Names are unique across
// built-in and registered algorithms, so it searches both as they are,
// without the sorted copy Catalogue builds.
func Lookup(name string) (Params, error) {
	for _, p := range builtin() {
		if p.Name == name {
			return p, nil
		}
	}
	regMu.RLock()
	defer regMu.RUnlock()
	for _, p := range registered {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("crc: unknown algorithm %q", name)
}

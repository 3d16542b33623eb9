// Package crchash computes CRC checksums for widths up to 32 bits: a
// catalogue of standard algorithms in the Rocksoft parameter model, user
// registration of custom algorithms, four engine kinds (bit-at-a-time,
// byte-table, slicing-by-16 and a hardware-assisted hash/crc32
// delegate) cross-validated against the bitwise reference, and
// hash.Hash32-compatible digests. Kind Auto picks among them by a static
// structural rule: the accelerated hardware path for IEEE and
// Castagnoli, otherwise slicing-by-16, otherwise the byte table,
// otherwise the bitwise reference.
//
// This is the checksum half of the koopmancrc module, split out so that
// serving paths that only compute CRCs need none of the evaluation
// machinery. Engines for catalogued algorithms are built once and cached
// process-wide — repeated Checksum calls never redo the catalogue lookup
// or table construction — and every engine is safe for concurrent use
// once built.
package crchash

import (
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"

	"koopmancrc/internal/crc"
	"koopmancrc/internal/poly"
)

// Params describes a CRC algorithm in the Rocksoft parameter model
// (generator polynomial, init, input/output reflection, final XOR, and
// an optional catalogue check value over the ASCII bytes "123456789").
type Params = crc.Params

// Engine computes CRCs for one parameter set: one-shot Checksum plus the
// Init/Update/Finalize streaming triple. Engines are stateless after
// construction and safe for concurrent use.
type Engine = crc.Engine

// Digest adapts an Engine to hash.Hash32 so any catalogued algorithm can
// drop into code written against hash/crc32.
type Digest = crc.Digest

// Catalogued standard parameter sets (see Algorithms for the full list
// by name).
var (
	// CRC32IEEE is the IEEE 802.3 / ISO-HDLC CRC-32 used by Ethernet,
	// gzip and zip.
	CRC32IEEE = crc.CRC32IEEE
	// CRC32C is the Castagnoli CRC-32C adopted by iSCSI (RFC 3720), SCTP
	// and ext4.
	CRC32C = crc.CRC32C
	// CRC32K wraps the paper's 0xBA0DC66B in the same framing
	// conventions as CRC-32/CRC-32C.
	CRC32K = crc.CRC32K
)

// Kind selects a checksum engine implementation.
type Kind int

// Available engine kinds.
const (
	// Auto picks the fastest kernel the parameter set admits by a
	// static rule: Hardware for the generators hash/crc32 accelerates
	// (IEEE, Castagnoli), otherwise Slicing16, otherwise Table,
	// otherwise Bitwise.
	Auto Kind = iota
	// Bitwise is the bit-at-a-time reference engine, valid for every
	// width and reflection combination.
	Bitwise
	// Table is the 256-entry byte-table engine (width divisible by 8,
	// RefIn == RefOut).
	Table
	// Slicing16 processes sixteen bytes per step (reflected 32-bit
	// algorithms only): the table loads for a whole block are
	// independent, so the XOR reduction is the only serial chain.
	Slicing16
	// Hardware delegates to the standard library's hash/crc32, which
	// uses CLMUL folding (IEEE) and the SSE4.2/ARMv8 CRC32C
	// instructions (Castagnoli) where the platform has them
	// (reflected 32-bit algorithms only).
	Hardware
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Auto:
		return "auto"
	case Bitwise:
		return "bitwise"
	case Table:
		return "table"
	case Slicing16:
		return "slicing16"
	case Hardware:
		return "hardware"
	default:
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Kinds returns the concrete engine kinds — every kind except Auto, in
// reference-first order — so callers (such as the kernel cross-validation
// tests) can iterate kernels without hardcoding the list.
func Kinds() []Kind {
	return []Kind{Bitwise, Table, Slicing16, Hardware}
}

// ParseKind maps a kind name (as produced by String, case-insensitive)
// back to the Kind. cmd/crcbench uses it to check the kernel names in
// its checked-in reports.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return Auto, nil
	case "bitwise":
		return Bitwise, nil
	case "table":
		return Table, nil
	case "slicing16":
		return Slicing16, nil
	case "hardware":
		return Hardware, nil
	default:
		return 0, fmt.Errorf("crchash: unknown engine kind %q", s)
	}
}

// Admits reports whether the parameter set can be served by this kind —
// the same predicate the constructors enforce, without paying table
// construction to ask.
func (k Kind) Admits(p Params) bool {
	switch k {
	case Auto, Bitwise:
		return true
	case Table:
		return p.Poly.Width()%8 == 0 && p.RefIn == p.RefOut
	case Slicing16, Hardware:
		return p.Poly.Width() == 32 && p.RefIn && p.RefOut
	default:
		return false
	}
}

// KindOf reports which concrete kind built the engine, so serving
// layers can surface the kernel that actually computed a checksum.
// Engines not built by this package report Auto.
func KindOf(e Engine) Kind {
	switch e.(type) {
	case *crc.Bitwise:
		return Bitwise
	case *crc.Table:
		return Table
	case *crc.Slicing16:
		return Slicing16
	case *crc.Hardware:
		return Hardware
	default:
		return Auto
	}
}

// New returns the fastest engine the parameter set admits (Kind Auto).
func New(p Params) Engine { return crc.New(p) }

// NewEngine builds an engine of an explicit kind, erroring when the
// parameters do not admit it (e.g. Table for a width not divisible by 8).
func NewEngine(p Params, k Kind) (Engine, error) {
	switch k {
	case Auto:
		return crc.New(p), nil
	case Bitwise:
		return crc.NewBitwise(p), nil
	case Table:
		return crc.NewTable(p)
	case Slicing16:
		return crc.NewSlicing16(p)
	case Hardware:
		return crc.NewHardware(p)
	default:
		return nil, fmt.Errorf("crchash: unknown engine kind %v", k)
	}
}

// NewDigest returns a hash.Hash32 over the engine's algorithm.
func NewDigest(e Engine) *Digest { return crc.NewDigest(e) }

// Pure returns the parameter set that makes the CRC a plain polynomial
// remainder: crc(data) = data(x) * x^width mod G(x) — the convention
// under which Hamming-distance analysis holds bit-for-bit.
func Pure(p poly.P) Params { return crc.Pure(p) }

// Lookup finds a catalogued algorithm by name, e.g. "CRC-32C/iSCSI".
func Lookup(name string) (Params, error) { return crc.Lookup(name) }

// Algorithms lists the catalogued algorithm names — built-in standards
// plus user registrations — sorted.
func Algorithms() []string {
	cat := crc.Catalogue()
	out := make([]string, len(cat))
	for i, p := range cat {
		out[i] = p.Name
	}
	return out
}

// Register adds a user-defined algorithm to the catalogue under its
// Name, after which Checksum, ForAlgorithm and NewHash resolve it like
// any standard. Names must be unique; a non-zero Check value is verified
// against the reference engine before the algorithm is accepted.
func Register(p Params) error { return crc.Register(p) }

// engines caches one built engine per catalogued algorithm name.
// Registration is append-only and names are unique, so a cached engine
// can never go stale.
var engines sync.Map // string -> Engine

// ForAlgorithm returns the process-wide cached engine for a catalogued
// algorithm: the catalogue lookup and table construction happen once per
// name, not once per call. The engine is safe for concurrent use.
func ForAlgorithm(name string) (Engine, error) {
	if e, ok := engines.Load(name); ok {
		return e.(Engine), nil
	}
	params, err := crc.Lookup(name)
	if err != nil {
		return nil, err
	}
	e, _ := engines.LoadOrStore(name, crc.New(params))
	return e.(Engine), nil
}

// Checksum computes the CRC of data under a catalogued algorithm name
// (e.g. "CRC-32/IEEE-802.3", "CRC-32C/iSCSI", "CRC-32K/Koopman"), using
// the cached engine.
func Checksum(algorithm string, data []byte) (uint32, error) {
	e, err := ForAlgorithm(algorithm)
	if err != nil {
		return 0, err
	}
	return e.Checksum(data), nil
}

// NewHash returns a fresh hash.Hash32 over a catalogued algorithm,
// backed by the cached engine.
func NewHash(algorithm string) (hash.Hash32, error) {
	e, err := ForAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	return crc.NewDigest(e), nil
}

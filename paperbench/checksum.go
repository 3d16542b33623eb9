package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"time"

	"koopmancrc/crchash"
)

// checksumW checksums Ethernet MTU frames (1514 bytes, the paper's
// 12112-bit data word) with the library: one operation checksums a batch
// of 16 frames under CRC-32 (IEEE 802.3), CRC-32C (iSCSI) and CRC-32K
// (Koopman), the three polynomials the paper compares. Frames are all of
// the one length the paper evaluates at, so no traffic mix is assumed.
// The seed fills the frames. Expected values come from the standard
// library's hash/crc32.
type checksumW struct {
	batches [][][]byte
	want    [][][]uint32 // [batch][algorithm][frame]
	engines []crchash.Engine
	next    int
}

const (
	framesPerBatch = 16
	// nBatches distinct batches, 1.5 MB of frames, cycle through the run
	// rather than one batch staying hot in the cache.
	nBatches = 64
)

func newChecksum(rng *rand.Rand, _ bool) workload {
	w := &checksumW{}
	for range nBatches {
		var batch [][]byte
		for range framesPerBatch {
			f := make([]byte, mtuBits/8)
			for i := range f {
				f[i] = byte(rng.Uint32())
			}
			batch = append(batch, f)
		}
		want := make([][]uint32, len(algorithms))
		for a, alg := range algorithms {
			for _, f := range batch {
				want[a] = append(want[a], crc32.Checksum(f, alg.table))
			}
		}
		w.batches = append(w.batches, batch)
		w.want = append(w.want, want)
	}
	return w
}

// setup builds an engine per algorithm, as a program hashing with them
// would on start-up, and checks it against the catalogue's check value.
func (w *checksumW) setup() error {
	w.engines = w.engines[:0]
	check := []byte("123456789")
	for _, alg := range algorithms {
		p, err := crchash.Lookup(alg.name)
		if err != nil {
			return err
		}
		e := crchash.New(p)
		if got, want := e.Checksum(check), crc32.Checksum(check, alg.table); got != want {
			return fmt.Errorf("%s: check value %#x, want %#x", alg.name, got, want)
		}
		w.engines = append(w.engines, e)
	}
	return nil
}

func (w *checksumW) op(tr *trace) (func() error, error) {
	b := w.next
	w.next = (w.next + 1) % nBatches
	batch := w.batches[b]
	got := make([][]uint32, len(algorithms))
	for a, e := range w.engines {
		start := time.Now()
		sums := make([]uint32, len(batch))
		for i, f := range batch {
			sums[i] = e.Checksum(f)
		}
		tr.add(algorithms[a].layer, start)
		got[a] = sums
	}
	return func() error {
		for a := range got {
			for i, s := range got[a] {
				if s != w.want[b][a][i] {
					return fmt.Errorf("%s: frame %d: checksum %#x, want %#x",
						algorithms[a].name, i, s, w.want[b][a][i])
				}
			}
		}
		return nil
	}, nil
}

func (w *checksumW) verify() error { return nil }
func (w *checksumW) close()        {}

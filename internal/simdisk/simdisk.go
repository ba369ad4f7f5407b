// Package simdisk models the disk behaviour of the paper's co-location
// experiment (§6.2) deterministically. The paper measures elapsed time
// of a merge query while the physical separation between related chunks
// grows; query time first rises with separation and then stabilizes
// "because disk seek time eventually becomes a constant overhead".
//
// We have no spinning disk, so we substitute an explicit cost model:
//
//	cost(read) = Base + min(distance·PerChunk, SeekCap) + Transfer
//
// where distance is the number of chunks between the head position and
// the target. The saturating min term reproduces the plateau; the linear
// term reproduces the initial growth. The model is a pure function of
// a read order: a caller records the chunk IDs a query read (the chunk
// store's read hook) and prices that sequence with Model.Cost after the
// query has run, so the engine never knows about disks.
package simdisk

import (
	"fmt"
	"math"
)

// Model holds the seek-cost parameters. All costs are in milliseconds of
// modeled time.
type Model struct {
	// Base is the fixed per-read overhead (controller + rotational).
	Base float64
	// PerChunk is the seek cost per chunk of head travel.
	PerChunk float64
	// SeekCap bounds the seek term: beyond SeekCap/PerChunk chunks of
	// travel, seeking costs the same regardless of distance.
	SeekCap float64
	// Transfer is the per-chunk transfer cost.
	Transfer float64
}

// DefaultModel returns parameters shaped like a mid-2000s commodity
// drive (the paper's testbed era): ~8 ms full-stroke seek, sub-ms
// short seeks, small per-chunk transfer.
func DefaultModel() Model {
	return Model{Base: 0.05, PerChunk: 0.001, SeekCap: 8.0, Transfer: 0.02}
}

// Validate checks the model's parameters.
func (m Model) Validate() error {
	if m.Base < 0 || m.PerChunk < 0 || m.SeekCap < 0 || m.Transfer < 0 {
		return fmt.Errorf("simdisk: negative cost in model %+v", m)
	}
	return nil
}

// ReadCost returns the modeled cost of reading the chunk at position
// `to` with the head at position `from`.
func (m Model) ReadCost(from, to int) float64 {
	dist := math.Abs(float64(to - from))
	return m.Base + math.Min(dist*m.PerChunk, m.SeekCap) + m.Transfer
}

// Cost prices reading the chunks at positions ids in order, with the
// head parked at 0: the modeled time in milliseconds and the total head
// travel in chunks.
func (m Model) Cost(ids []int) (ms float64, seekChunks int) {
	head := 0
	for _, id := range ids {
		ms += m.ReadCost(head, id)
		if id > head {
			seekChunks += id - head
		} else {
			seekChunks += head - id
		}
		head = id
	}
	return ms, seekChunks
}

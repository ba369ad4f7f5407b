package chunk_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/segment"
)

// leaseStore is a cube of 16 dense chunks of 256 cells, every cell
// holding a value unique to its chunk and offset, paged from a real
// segment file behind a pool of three chunks. It returns the paged
// store and a resident clone taken before the paging to check reads
// against.
func leaseStore(t *testing.T) (paged, orig *chunk.Store) {
	t.Helper()
	st := chunk.NewStore(chunk.MustGeometry([]int{64, 64}, []int{16, 16}))
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			st.Set([]int{i, j}, float64(1+i*64+j))
		}
	}
	orig = st.Clone().(*chunk.Store)
	if err := segment.PageOut(st, filepath.Join(t.TempDir(), "lease.seg"), 3*8*st.Geometry().ChunkCap()); err != nil {
		t.Fatal(err)
	}
	return st, orig
}

// sameCells reports the first cell where got differs from want, or "".
func sameCells(got, want *chunk.Chunk) string {
	if got.Rep() != chunk.Dense || got.Len() != want.Len() {
		return fmt.Sprintf("rep %v with %d cells, want dense with %d", got.Rep(), got.Len(), want.Len())
	}
	for off := 0; off < want.Cap(); off++ {
		if g, w := got.Get(off), want.Get(off); g != w && !(g != g && w != w) {
			return fmt.Sprintf("offset %d holds %v, want %v", off, g, w)
		}
	}
	return ""
}

// TestPoolLeaseConcurrentHolders: goroutines each hold a leased chunk
// while a second lease of theirs faults others through the same
// three-chunk pool — evicting the held chunk and recycling frames all
// the while — and check every cell of the held chunk against the
// resident original before they release it. A frame recycled under a
// lease would show another chunk's cells. Run under -race by verify.sh.
func TestPoolLeaseConcurrentHolders(t *testing.T) {
	st, orig := leaseStore(t)
	ids := st.ChunkIDs()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			held, churn := st.Lease(), st.Lease()
			defer held.Release()
			defer churn.Release()
			for round := 0; round < 100; round++ {
				id := ids[r.Intn(len(ids))]
				ch, _, err := held.Read(id)
				if err != nil {
					errs <- err.Error()
					return
				}
				for k := 0; k < 6; k++ {
					if _, _, err := churn.Read(ids[r.Intn(len(ids))]); err != nil {
						errs <- err.Error()
						return
					}
				}
				if diff := sameCells(ch, orig.PeekChunk(id)); diff != "" {
					errs <- fmt.Sprintf("round %d: leased chunk %d changed under its lease: %s", round, id, diff)
					return
				}
				held.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	ps := st.SpillStats()
	if ps.Leased != 0 {
		t.Fatalf("%d leases outstanding after every holder released", ps.Leased)
	}
	if ps.Recycled == 0 || ps.Faults < 100 {
		t.Fatalf("%d faults recycled %d frames: the pool never reused a frame, so the test shows nothing", ps.Faults, ps.Recycled)
	}
}

// TestPoolLeaseUnleasedHolders: a chunk handed out without a lease is
// the caller's for good, so its frame never goes back to the decoder —
// whether it came from PeekChunk or ReadChunk, or was leased and then
// read by Get before the lease was released. Each holder keeps its
// chunk across 1000 faults that recycle every other frame, and sees it
// unchanged.
func TestPoolLeaseUnleasedHolders(t *testing.T) {
	st, orig := leaseStore(t)
	ids := st.ChunkIDs()
	// Fault every chunk once, so none of the holders' chunks is one the
	// attach left resident (those escaped at the attach).
	warm := st.Lease()
	for _, id := range append(ids, ids[3:]...) {
		if _, _, err := warm.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	warm.Release()
	peeked := st.PeekChunk(ids[0])
	read := st.ReadChunk(ids[1])
	lease := st.Lease()
	got, _, err := lease.Read(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	ccoord, addr := make([]int, 2), make([]int, 2)
	st.Geometry().CoordOf(ids[2], ccoord)
	st.Geometry().Join(ccoord, 0, addr)
	if v := st.Get(addr); v != got.Get(0) {
		t.Fatalf("Get(%v) = %v, the leased chunk holds %v", addr, v, got.Get(0))
	}
	lease.Release()

	churn := st.Lease()
	defer churn.Release()
	before := st.SpillStats()
	for k := 0; k < 1000; k++ {
		if _, _, err := churn.Read(ids[3+k%(len(ids)-3)]); err != nil {
			t.Fatal(err)
		}
	}
	if ps := st.SpillStats(); ps.Faults-before.Faults < 1000 || ps.Recycled == before.Recycled {
		t.Fatalf("churn: %d faults, %d frames recycled: the test shows nothing", ps.Faults-before.Faults, ps.Recycled-before.Recycled)
	}
	for _, h := range []struct {
		name string
		id   int
		ch   *chunk.Chunk
	}{{"PeekChunk", ids[0], peeked}, {"ReadChunk", ids[1], read}, {"Get after a lease", ids[2], got}} {
		if diff := sameCells(h.ch, orig.PeekChunk(h.id)); diff != "" {
			t.Fatalf("%s's chunk %d changed after 1000 faults: %s", h.name, h.id, diff)
		}
	}
}

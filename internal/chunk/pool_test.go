package chunk

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolPinPreventsEviction(t *testing.T) {
	s := pagedStore(t, 70)

	// Fault chunk 0 in and pin it.
	if got := s.Get([]int{0}); got != 1 {
		t.Fatalf("Get(0) = %v, want 1", got)
	}
	s.Pin(0)
	if st := s.SpillStats(); st.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", st.Pinned)
	}

	// Churn every other chunk; evictions happen, chunk 0 must survive.
	for round := 0; round < 3; round++ {
		for i := 4; i < 64; i++ {
			if got := s.Get([]int{i}); got != float64(i+1) {
				t.Fatalf("Get(%d) = %v during churn", i, got)
			}
		}
	}
	s.mu.Lock()
	_, resident := s.chunks[0]
	s.mu.Unlock()
	if !resident {
		t.Fatal("pinned chunk evicted")
	}

	// Pinning a chunk that is currently spilled protects it from the
	// moment it faults back in.
	s.Pin(15)
	if got := s.Get([]int{63}); got != 64 {
		t.Fatalf("Get(63) = %v, want 64", got)
	}
	for i := 4; i < 60; i++ {
		s.Get([]int{i})
	}
	s.mu.Lock()
	_, resident15 := s.chunks[15]
	s.mu.Unlock()
	if !resident15 {
		t.Fatal("chunk pinned while spilled was evicted after fault-in")
	}
	s.Unpin(15)

	// Once unpinned, chunk 0 is evictable like any cold chunk.
	s.Unpin(0)
	if st := s.SpillStats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after Unpin, want 0", st.Pinned)
	}
	for i := 32; i < 64; i++ {
		s.Get([]int{i})
	}
	s.mu.Lock()
	_, resident = s.chunks[0]
	s.mu.Unlock()
	if resident {
		t.Fatal("unpinned cold chunk should have been evicted by churn")
	}

	// Unpinning an unpinned chunk is a no-op, not a panic or underflow.
	s.Unpin(0)
	s.Unpin(99)
	if st := s.SpillStats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d, want 0", st.Pinned)
	}
}

// Concurrent readers faulting spilled chunks back in: the pool must
// overlap distinct chunks' I/O and deduplicate same-chunk faults
// without corrupting values. Run under -race by verify.sh.
func TestPoolConcurrentFaultIns(t *testing.T) {
	s := pagedStore(t, 70)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := r.Intn(64)
				if got := s.Get([]int{i}); got != float64(i+1) {
					select {
					case errs <- fmt.Sprintf("Get(%d) = %v, want %v", i, got, float64(i+1)):
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	st := s.SpillStats()
	if st.Faults == 0 {
		t.Fatal("concurrent churn over a spilled store should fault")
	}
	if st.Resident+st.Spilled != 16 {
		t.Fatalf("chunks lost: resident=%d spilled=%d", st.Resident, st.Spilled)
	}
}

// Concurrent ReadChunk traffic while the read hook is installed,
// removed and reinstalled: the atomic hook pointer and hookMu must keep
// this race-free (hook state itself needs no synchronization).
func TestPoolConcurrentReadersWithHook(t *testing.T) {
	s := pagedStore(t, 70)
	var hits atomic.Int64
	count := func(id int) { hits.Add(1) }
	s.SetReadHook(count)

	var readers sync.WaitGroup
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if n%2 == 0 {
				s.SetReadHook(nil)
			} else {
				s.SetReadHook(count)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				if c := s.ReadChunk(r.Intn(16)); c != nil {
					_ = c.Len()
				}
			}
		}(int64(w))
	}
	readers.Wait()
	close(stop)
	swapper.Wait()

	if got := s.Reads(); got != 4*300 {
		t.Fatalf("Reads = %d, want %d", got, 4*300)
	}
	// With the hook re-installed, reads observe it again.
	s.SetReadHook(count)
	before := hits.Load()
	s.ReadChunk(0)
	if hits.Load() != before+1 {
		t.Fatal("re-installed hook not observing reads")
	}
}

// A read hook that panics, recovered by the reader, must leave the hook
// mutex free: the next hooked read, on another goroutine, returns
// instead of waiting forever on a lock the panic never released.
func TestPoolReadAfterHookPanic(t *testing.T) {
	s := pagedStore(t, 70)
	s.SetReadHook(func(int) { panic("injected hook fault") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the hook's panic did not reach the reader")
			}
		}()
		s.ReadChunk(0)
	}()

	var hits atomic.Int64
	s.SetReadHook(func(int) { hits.Add(1) })
	done := make(chan *Chunk, 1)
	go func() { done <- s.ReadChunk(1) }()
	select {
	case c := <-done:
		if c == nil || hits.Load() != 1 {
			t.Fatalf("read after the recovered panic: chunk %v, %d hook calls", c != nil, hits.Load())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a hooked read after a recovered hook panic did not return within 2 s")
	}
}

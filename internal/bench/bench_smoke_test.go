package bench

import (
	"testing"

	"whatifolap/internal/simdisk"
	"whatifolap/internal/workload"
)

func TestSmokeAll(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	r11, err := Fig11(w, 3, 1)
	if err != nil || len(r11) != 3 {
		t.Fatalf("Fig11: %v %v", r11, err)
	}
	cfg := Fig12Defaults()
	cfg.BaseSeparation, cfg.MaxMultiple = 50, 2
	r12, err := Fig12(cfg, 1)
	if err != nil || len(r12) != 2 {
		t.Fatalf("Fig12: %v %v", r12, err)
	}
	if r12[1].DiskMS <= r12[0].DiskMS {
		t.Logf("warning: disk cost not increasing: %+v", r12)
	}
	r13, err := Fig13(w, 2, 6, 1)
	if err != nil || len(r13) != 3 {
		t.Fatalf("Fig13: %v %v", r13, err)
	}
	if _, err := AblationPebbling(w, simdisk.DefaultModel()); err != nil {
		t.Fatal(err)
	}
	if rows, err := PlanCost(w, []int{2, 100}, 1); err != nil || len(rows) != 2 || rows[1].MergeEdges == 0 {
		t.Fatalf("PlanCost: %+v %v", rows, err)
	}
	if _, err := AblationMode(w, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationChunkRep(w, 1); err != nil {
		t.Fatal(err)
	}
	comp, err := AblationCompression(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != 2 || comp[1].Bytes >= comp[0].Bytes {
		t.Fatalf("compression should shrink the representation: %+v", comp)
	}
}

// TestKernelSlabReplayMatchesPerCell: the overlay-kernel figure's slab
// row writes exactly the cells its per-cell rows write.
func TestKernelSlabReplayMatchesPerCell(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(w)
	if err != nil {
		t.Fatal(err)
	}
	cells, slabs := k.NewOverlay(), k.NewOverlay()
	if n, m := k.Replay(cells), k.replaySlabs(slabs); n != m || slabs.Len() != cells.Len() {
		t.Fatalf("slab replay wrote %d cells (%d held), per-cell replay %d (%d held)", m, slabs.Len(), n, cells.Len())
	}
	cells.NonNull(func(addr []int, v float64) bool {
		if got := slabs.Get(addr); got != v {
			t.Fatalf("cell %v = %v after the slab replay, %v after the per-cell one", addr, got, v)
		}
		return true
	})
}

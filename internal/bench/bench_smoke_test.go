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
		t.Fatalf("Fig12: modeled disk cost not increasing with separation: %+v", r12)
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
}

// TestModeledColumnsPinned pins the seek model's figure columns — Fig 12's
// co-location curve and the read-order ablation — to exact values, so a
// change in how reads are recorded or priced cannot move them silently.
func TestModeledColumnsPinned(t *testing.T) {
	r12, err := Fig12(Fig12Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantMS := []float64{4.14, 8.14, 12.14, 13.14, 13.14}
	if len(r12) != len(wantMS) {
		t.Fatalf("Fig12: %d rows, want %d", len(r12), len(wantMS))
	}
	for i, r := range r12 {
		if r.DiskMS != wantMS[i] {
			t.Errorf("Fig12 %dx: DiskMS = %v, want %v", r.Multiple, r.DiskMS, wantMS[i])
		}
	}

	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblationPebbling(w, simdisk.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	want := []PebbleRow{
		{Order: "pebbling", PeakChunks: 2, DiskMS: 0.5780000000000001, SeekChunks: 18},
		{Order: "varying-first", PeakChunks: 2, DiskMS: 0.5850000000000002, SeekChunks: 25},
		{Order: "varying-last", PeakChunks: 3, DiskMS: 0.5670000000000001, SeekChunks: 7},
		{Order: "canonical", PeakChunks: 3, DiskMS: 0.5670000000000001, SeekChunks: 7},
	}
	if len(rows) != len(want) {
		t.Fatalf("AblationPebbling: %+v, want %+v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("AblationPebbling row %d = %+v, want %+v", i, rows[i], want[i])
		}
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

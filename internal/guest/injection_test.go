package guest

import (
	"testing"

	"nova/internal/hw"
)

// TestDiskReadKeepsEveryInterrupt runs a long stream of single-sector
// virtualized reads with the guest's 100 Hz timer running alongside, so
// a disk completion and a timer tick sooner or later become pending in
// the VMM's virtual PIC while an earlier injection still waits for the
// guest's interrupt window. The exit message must report that pending
// injection, or the VMM acknowledges a second vector whose reply
// overwrites the first: the lost vector's line then stays in the
// virtual PIC's in-service register and the guest waits forever for
// its disk completion.
func TestDiskReadKeepsEveryInterrupt(t *testing.T) {
	const requests = 6000
	r, err := NewRunner(RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
		MustBuild(DiskReadKernel()))
	if err != nil {
		t.Fatal(err)
	}
	writeParams(r, 1, requests, 4096)
	_, err = r.RunUntilDone(1 << 34)
	if done := r.ReadGuest32(ProgressAddr); done != requests {
		t.Fatalf("guest completed %d of %d disk requests (run: %v)", done, requests, err)
	}
	if err != nil {
		t.Fatal(err)
	}
}

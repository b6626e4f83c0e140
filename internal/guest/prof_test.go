package guest

import (
	"bytes"
	"fmt"
	"testing"

	"nova/internal/obs"
)

// TestProfileDoubleRunByteIdentity runs each workload twice with
// profiling enabled and requires byte-identical encoded profiles with a
// nonzero sample count: the sampling grid, the stack walks, the
// attributions and the captured code bytes all derive from
// deterministic simulation state, so nothing may vary between runs.
func TestProfileDoubleRunByteIdentity(t *testing.T) {
	for _, tc := range abWorkloads() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ProfilePeriod = 10_000
			b1, b2 := obsRun(t, cfg, tc), obsRun(t, cfg, tc)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two profiled runs encode differently (%d vs %d bytes)", len(b1), len(b2))
			}
			f, err := obs.Decode(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			d := f.Prof
			if d.TotalSamples() == 0 {
				t.Fatal("profiled run recorded zero samples")
			}
			t.Logf("%s: %d samples, %d attributed events, %s",
				tc.name, d.TotalSamples(), len(d.Attrib), fmt.Sprintf("%d bytes", len(b1)))
		})
	}
}

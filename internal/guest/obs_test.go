package guest

import (
	"bytes"
	"slices"
	"testing"

	"nova/internal/obs"
	"nova/internal/stat"
)

// allRecorders attaches every recorder the configuration's mode
// supports (the tracer and span recorder exist only under a hypervisor).
func allRecorders(c *RunnerConfig) {
	c.ProfilePeriod = 10_000
	c.StatEpoch = stat.DefaultEpochLen
	if c.Mode != ModeNative {
		c.TraceCapacity = 4096
		c.SpanCapacity = 4096
	}
}

// obsRun boots one workload under cfg and returns its encoded NOVAOBS1
// file.
func obsRun(t *testing.T, cfg RunnerConfig, w abWorkload) []byte {
	t.Helper()
	r, err := NewRunner(cfg, w.img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, w.params...)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := r.EncodeObs()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// decodeObs encodes the finished run's observations and decodes them
// again, so tests read what a file on disk would hold.
func decodeObs(t *testing.T, r *Runner) *obs.File {
	t.Helper()
	b, err := r.EncodeObs()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	f, err := obs.Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return f
}

// TestObsDoubleRunByteIdentity runs each workload twice with every
// recorder attached and requires byte-identical NOVAOBS1 files holding
// a section per attached recorder, each re-encoding to the same bytes.
func TestObsDoubleRunByteIdentity(t *testing.T) {
	for _, w := range abWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.cfg
			allRecorders(&cfg)
			b1, b2 := obsRun(t, cfg, w), obsRun(t, cfg, w)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two identical runs encoded different files (%d vs %d bytes)", len(b1), len(b2))
			}
			f, err := obs.Decode(b1)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"trace", "prof", "stat", "span"}
			if cfg.Mode == ModeNative {
				want = []string{"prof", "stat"}
			}
			if got := f.Sections(); !slices.Equal(got, want) {
				t.Fatalf("sections %v, want %v", got, want)
			}
			if b3, err := f.Encode(); err != nil || !bytes.Equal(b1, b3) {
				t.Fatalf("decoded file re-encodes differently (%v)", err)
			}
			t.Logf("%s: %d bytes, sections %v", w.name, len(b1), f.Sections())
		})
	}
}

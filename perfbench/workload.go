package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"nova/internal/guest"
	"nova/internal/hw"
)

// job is one seed's inputs: everything a repetition needs to build its
// machine, drive it and check what it produced. Every repetition of a
// job replays the same inputs, so its simulated fingerprint must repeat.
type job struct {
	cfg    guest.RunnerConfig
	kernel guest.KernelOpts
	writes []guestWrite // parameter block and request table
	ops    int          // operations one repetition performs
	output uint64       // guest word holding the job's result

	// check verifies the outputs of the first completed operations once
	// the guest has stopped (finished or stalled).
	check func(r *guest.Runner, completed int) error
}

// guestWrite is one block of guest-physical memory written at set-up.
type guestWrite struct {
	gpa  uint64
	data []byte
}

// workloads maps each workload name to its input generator.
var workloads = map[string]func(seed uint64) job{
	"compile-ept":  func(seed uint64) job { return compileJob(drawCompileParams(seed), guest.ModeVirtEPT) },
	"compile-vtlb": func(seed uint64) job { return compileJob(drawCompileParams(seed), guest.ModeVirtVTLB) },
	"disk-rw":      func(seed uint64) job { return diskJob(seed, diskPerSize) },
}

// newRNG returns the generator of one workload's inputs.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// ---- compile-ept / compile-vtlb ----

// compileParams is the parameter block of guest.CompileKernel.
type compileParams struct {
	slices, cachePages, privPages, filler, subslices uint32
}

// faultAddr is where CompileKernel counts its demand faults.
const faultAddr = guest.ParamBase + 0x30

// drawCompileParams draws the working set in a band around the Figure 5
// quick scale (384 page-cache pages, 32 private pages); the compute per
// timeslice stays at that scale's (10000 filler iterations, 3
// subslices, 12 timeslices), so seeds differ in translation behaviour
// while a timeslice stays the same amount of work.
func drawCompileParams(seed uint64) compileParams {
	rng := newRNG(seed, 0x636f6d70)
	return compileParams{
		slices:     12,
		cachePages: 352 + uint32(rng.IntN(65)),
		privPages:  28 + uint32(rng.IntN(9)),
		filler:     10000,
		subslices:  3,
	}
}

// compileJob is the §8.1 synthetic compile under the given paging mode:
// EPT+VPID or shadow paging, host large pages, disk server on.
func compileJob(p compileParams, mode guest.Mode) job {
	block := make([]byte, 24)
	for i, v := range []uint32{p.slices, p.cachePages, p.privPages, p.filler, 1, p.subslices} {
		binary.LittleEndian.PutUint32(block[4*i:], v)
	}
	// Each process demand-faults its private pages once: four processes
	// (fewer if there are fewer slices than processes).
	wantFaults := min(p.slices, 4) * p.privPages
	return job{
		cfg: guest.RunnerConfig{Model: hw.BLM, Mode: mode, UseVPID: true,
			HostLargePages: true, WithDiskServer: true},
		kernel: guest.CompileKernel(667),
		writes: []guestWrite{{guest.ParamBase, block}},
		ops:    int(p.slices),
		output: faultAddr,
		check: func(r *guest.Runner, completed int) error {
			if completed < int(p.slices) {
				return nil // the unfinished slices already count as failed
			}
			if got := r.ReadGuest32(faultAddr); got != wantFaults {
				return fmt.Errorf("compile: %d demand faults, want %d", got, wantFaults)
			}
			return nil
		},
	}
}

// ---- disk-rw ----

// Guest layout of the disk-rw kernel.
const (
	diskTable    = 0x100000             // request table, 16-byte entries
	diskBuf      = 0x40000              // DMA buffer, up to 64 KiB
	diskSumAddr  = guest.ParamBase + 12 // running sum of folded dwords
	diskFirstLBA = 4096
	// diskLBASpan is the sector window the stream addresses (8 MiB), so
	// reads often revisit sectors written earlier in the stream.
	diskLBASpan = 16384
	// stampStep separates the stamps of consecutive sectors of a write.
	stampStep  = 0x9e3779b9
	maxSectors = 128 // 64 KiB
)

// fig6Sectors is Figure 6's block-size sweep (512 B to 64 KiB) in
// sectors.
var fig6Sectors = [...]uint32{1, 2, 4, 8, 16, 32, 64, 128}

// diskPerSize is how many requests of each block size one repetition's
// stream holds: Figure 6's full-scale request count per block size
// (bench.Full().DiskRequests), so a stream is 1600 requests.
const diskPerSize = 200

// diskReq is one request of the disk-rw stream. A write stamps the
// first dword of sector i with stamp + i*stampStep.
type diskReq struct {
	write   bool
	lba     uint32
	sectors uint32
	stamp   uint32
}

// diskStream draws a stream of perSize requests of each of Figure 6's
// block sizes, half of them writes and half reads (the 1:1 mix of
// guest.DiskWriteReadKernel), in seeded order at random LBAs inside the
// window. perSize must be even.
func diskStream(seed uint64, perSize int) []diskReq {
	rng := newRNG(seed, 0x6469736b)
	reqs := make([]diskReq, 0, perSize*len(fig6Sectors))
	for _, sectors := range fig6Sectors {
		for i := range perSize {
			reqs = append(reqs, diskReq{write: i%2 == 1, sectors: sectors})
		}
	}
	rng.Shuffle(len(reqs), func(i, k int) { reqs[i], reqs[k] = reqs[k], reqs[i] })
	for i := range reqs {
		reqs[i].lba = diskFirstLBA + uint32(rng.IntN(diskLBASpan-int(reqs[i].sectors)+1))
		reqs[i].stamp = rng.Uint32()
	}
	return reqs
}

// encodeDiskTable lays the stream out as the guest reads it:
// {op, lba, sectors, stamp} little-endian dwords per request.
func encodeDiskTable(reqs []diskReq) []byte {
	b := make([]byte, 16*len(reqs))
	for i, q := range reqs {
		op := uint32(0)
		if q.write {
			op = 1
		}
		e := b[16*i:]
		binary.LittleEndian.PutUint32(e[0:], op)
		binary.LittleEndian.PutUint32(e[4:], q.lba)
		binary.LittleEndian.PutUint32(e[8:], q.sectors)
		binary.LittleEndian.PutUint32(e[12:], q.stamp)
	}
	return b
}

// diskKernel is the disk-rw guest: it walks the request table, stamps
// the buffer before a write, issues each request through the AHCI
// driver and waits for its completion interrupt, then folds the first
// dword of every sector in the buffer into a running sum. The request
// count is at ParamBase, the sum at ParamBase+12, and the number of
// completed requests at guest.ProgressAddr.
func diskKernel() guest.KernelOpts {
	return guest.KernelOpts{
		TimerHz:   100, // background scheduling timer, as guest.DiskReadKernel has
		ExtraISRs: map[int]string{guest.AHCIVector: guest.AHCIISRBody()},
		Fragments: guest.AHCIDriverFragment(),
		Workload: fmt.Sprintf(`
	call ahci_init
	mov dword [%#[2]x], 0
	mov dword [%#[3]x], 0
	mov ebp, %#[4]x
rq_loop:
	cmp dword [ebp], 0
	jz rq_read
	mov edi, %#[5]x
	mov ecx, [ebp + 8]
	mov eax, [ebp + 12]
rq_stamp:
	mov [edi], eax
	add eax, %#[6]x
	add edi, 512
	dec ecx
	jnz rq_stamp
	mov eax, [ebp + 4]
	mov ecx, [ebp + 8]
	mov edi, %#[5]x
	call ahci_write
	call ahci_wait
	jmp rq_fold
rq_read:
	mov eax, [ebp + 4]
	mov ecx, [ebp + 8]
	mov edi, %#[5]x
	call ahci_read
	call ahci_wait
rq_fold:
	mov esi, %#[5]x
	mov ecx, [ebp + 8]
	mov edx, [%#[3]x]
rq_sum:
	add edx, [esi]
	add esi, 512
	dec ecx
	jnz rq_sum
	mov [%#[3]x], edx
	add ebp, 16
	mov eax, [%#[2]x]
	inc eax
	mov [%#[2]x], eax
	cmp eax, [%#[1]x]
	jb rq_loop
	jmp finish
`, guest.ParamBase, guest.ProgressAddr, diskSumAddr, diskTable, diskBuf, stampStep),
	}
}

// diskJob is the disk-rw workload: a seeded stream of AHCI reads and
// writes, perSize of each block size, under EPT+VPID with the disk
// server.
func diskJob(seed uint64, perSize int) job {
	reqs := diskStream(seed, perSize)
	n := len(reqs)
	count := make([]byte, 4)
	binary.LittleEndian.PutUint32(count, uint32(n))
	return job{
		cfg:    guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, WithDiskServer: true},
		kernel: diskKernel(),
		writes: []guestWrite{{guest.ParamBase, count}, {diskTable, encodeDiskTable(reqs)}},
		ops:    n,
		output: diskSumAddr,
		check: func(r *guest.Runner, completed int) error {
			return checkDisk(r, reqs[:completed], completed == n)
		},
	}
}

// checkDisk compares the guest's running sum with the sum computed from
// a fresh hw.Disk model replaying the completed requests. When the whole
// stream completed it also checks that every sector the stream wrote
// holds its stamp on the machine's disk.
func checkDisk(r *guest.Runner, done []diskReq, complete bool) error {
	disk := r.Plat.AHCI.Disk()
	model := hw.NewDisk(disk.Sectors, disk.BandwidthMBs, disk.MaxIOPS, r.Plat.Cost.FreqMHz)
	want, err := expectedDiskSum(done, model)
	if err != nil {
		return err
	}
	if got := r.ReadGuest32(diskSumAddr); got != want {
		return fmt.Errorf("disk-rw: guest sum %#x after %d requests, model says %#x", got, len(done), want)
	}
	if !complete {
		return nil
	}
	var a, b [hw.SectorSize]byte
	for _, q := range done {
		if !q.write {
			continue
		}
		for s := uint64(q.lba); s < uint64(q.lba+q.sectors); s++ {
			if err := disk.ReadSectors(s, 1, a[:]); err != nil {
				return err
			}
			if err := model.ReadSectors(s, 1, b[:]); err != nil {
				return err
			}
			if x, y := binary.LittleEndian.Uint32(a[:]), binary.LittleEndian.Uint32(b[:]); x != y {
				return fmt.Errorf("disk-rw: sector %d holds %#x, model says %#x", s, x, y)
			}
		}
	}
	return nil
}

// expectedDiskSum replays reqs against the disk model d: each write
// stores its stamps (the rest of each sector is zero; only first dwords
// are ever folded) and each read fetches the sectors. It returns the
// 32-bit sum of the first dword of every sector transferred, which is
// what the guest folds.
func expectedDiskSum(reqs []diskReq, d *hw.Disk) (uint32, error) {
	var sum uint32
	buf := make([]byte, maxSectors*hw.SectorSize)
	for _, q := range reqs {
		n := int(q.sectors)
		b := buf[:n*hw.SectorSize]
		if q.write {
			clear(b)
			for s := 0; s < n; s++ {
				binary.LittleEndian.PutUint32(b[s*hw.SectorSize:], q.stamp+uint32(s)*stampStep)
			}
			if err := d.WriteSectors(uint64(q.lba), n, b); err != nil {
				return 0, err
			}
		} else if err := d.ReadSectors(uint64(q.lba), n, b); err != nil {
			return 0, err
		}
		for s := 0; s < n; s++ {
			sum += binary.LittleEndian.Uint32(b[s*hw.SectorSize:])
		}
	}
	return sum, nil
}

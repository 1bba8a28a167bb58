// Package cray models the hardware and batch environment of the Cray
// Y-MP 8/832 at NASA Ames described in §2.2 of the paper: eight 6 ns
// processors, 128 MW of shared SRAM, 9.6 MB/s disks (35.2 GB total), a
// 256 MW DRAM solid-state disk (SSD) managed as a file-system cache, and
// a memory-tiered batch queueing system without virtual memory.
//
// The simulator (internal/sim) consumes these parameters; they are
// collected here so every experiment draws on one machine description.
package cray

// Word and memory geometry. A Cray word is 8 bytes; memory sizes in the
// paper are quoted in megawords (MW).
const (
	WordBytes = 8
	MegaWord  = 1 << 20 // words per MW

	// MWBytes is the number of bytes in one megaword.
	MWBytes = MegaWord * WordBytes
)

// MWToBytes converts a size in megawords to bytes.
func MWToBytes(mw int) int64 { return int64(mw) * MWBytes }

// CPU parameters of the Y-MP 8/832.
const (
	NumCPUs      = 8
	ClockNanos   = 6   // 6 ns cycle time
	MemoryMW     = 128 // total shared memory, megawords
	MemoryPerCPU = MemoryMW / NumCPUs
)

// Disk models one of the Y-MP's high-speed disks (the DD-49 class drives
// of the NAS configuration: 9.6 MB/s sustained transfer). Seek and
// rotation values follow the paper's discussion: "the Cray Y-MP disks
// seek relatively slowly" and an uncached large transfer "might take as
// long as 15 ms".
type Disk struct {
	// TransferBytesPerSec is the sustained per-spindle transfer rate.
	TransferBytesPerSec float64
	// MinSeekMs and MaxSeekMs bound the distance-dependent seek time.
	MinSeekMs float64
	MaxSeekMs float64
	// HalfRotationMs is the average rotational delay.
	HalfRotationMs float64
	// CapacityBytes is the per-spindle capacity.
	CapacityBytes int64
}

// DefaultDisk returns the Y-MP disk model.
func DefaultDisk() Disk {
	return Disk{
		TransferBytesPerSec: 9.6e6,
		MinSeekMs:           4,
		MaxSeekMs:           25,
		HalfRotationMs:      8.3,
		CapacityBytes:       1200 << 20, // ~1.2 GB per spindle (35.2 GB / ~30 drives)
	}
}

// Volume models the logical file system the applications see: files are
// striped across Stripe spindles, so large transfers proceed at
// Stripe x per-disk bandwidth while paying one seek. This is how the NAS
// configuration delivered the >40 MB/s venus demanded (§6.2) from
// 9.6 MB/s spindles.
type Volume struct {
	Disk   Disk
	Stripe int // number of spindles a transfer spreads across
}

// DefaultVolume returns the logical-volume model used by the simulations.
func DefaultVolume() Volume {
	return Volume{Disk: DefaultDisk(), Stripe: 10}
}

// BandwidthBytesPerSec is the aggregate streaming bandwidth of the volume.
func (v Volume) BandwidthBytesPerSec() float64 {
	return v.Disk.TransferBytesPerSec * float64(v.Stripe)
}

// Split divides the volume's spindles across n shards, returning the
// per-shard volume: the same disks, a stripe of Stripe/n (at least 1).
// Sharding experiments use it to compare layouts on *conserved* hardware
// — n volumes of v.Split(n) hold the same spindle count (up to rounding)
// as one volume of v — rather than multiplying disks n-fold. n < 2
// returns v unchanged.
func (v Volume) Split(n int) Volume {
	if n < 2 {
		return v
	}
	s := v
	s.Stripe = v.Stripe / n
	if s.Stripe < 1 {
		s.Stripe = 1
	}
	return s
}

// SSD models the solid-state disk: DRAM behind a disk-like channel
// interface. §6.3 charges roughly 1 us per KB transferred (about 1 GB/s)
// plus a per-request setup overhead that is small next to a system call.
type SSD struct {
	CapacityMW       int
	BytesPerMicrosec float64 // transfer rate: ~1 KB per us
	SetupMicros      float64 // per-request setup overhead
}

// DefaultSSD returns the 256 MW NAS SSD model.
func DefaultSSD() SSD {
	return SSD{CapacityMW: 256, BytesPerMicrosec: 1024, SetupMicros: 20}
}

// CapacityBytes is the SSD capacity in bytes.
func (s SSD) CapacityBytes() int64 { return MWToBytes(s.CapacityMW) }

// PerCPUShareBytes is one processor's share of the SSD, the sizing §6.3
// uses ("each processor's share is 32 MW").
func (s SSD) PerCPUShareBytes() int64 { return s.CapacityBytes() / NumCPUs }

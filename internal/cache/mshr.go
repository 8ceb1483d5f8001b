package cache

import (
	"aurora/internal/faultinject"
	"aurora/internal/obs"
)

// MSHRFile models the Miss Status Holding Registers (Kroft's lockup-free
// cache structure, paper §2.3). In the Aurora III an MSHR is reserved for
// *every* memory instruction active in the LSU, from dispatch until its data
// returns — so the file size bounds the number of overlapped memory
// operations: one MSHR is a fully blocking cache, four allows four
// outstanding operations.
type MSHRFile struct {
	inUse    int
	capacity int

	cycleInUse uint64 // integral of occupancy over cycles, for utilisation

	probe *obs.Probe
}

// SetProbe attaches the observability probe: every occupancy change emits a
// counter event on the "mshr" track.
func (f *MSHRFile) SetProbe(p *obs.Probe) { f.probe = p }

// NewMSHRFile creates a file with n registers (n ≥ 1).
func NewMSHRFile(n int) *MSHRFile {
	if n < 1 {
		n = 1
	}
	return &MSHRFile{capacity: n}
}

// Capacity returns the number of registers.
func (f *MSHRFile) Capacity() int { return f.capacity }

// Available reports whether a register is free.
//
//aurora:hotpath
func (f *MSHRFile) Available() bool { return f.inUse < f.capacity }

// InUse returns the current occupancy.
//
//aurora:hotpath
func (f *MSHRFile) InUse() int { return f.inUse }

// Allocate reserves a register; it returns false when none is free.
//
//aurora:hotpath
func (f *MSHRFile) Allocate() bool {
	if f.inUse >= f.capacity {
		return false
	}
	f.inUse++
	if f.probe != nil {
		f.probe.Counter("cache", "mshr", uint64(f.inUse))
	}
	return true
}

// Release frees a register.
//
//aurora:hotpath
func (f *MSHRFile) Release() {
	if f.inUse == 0 || faultinject.Fires(faultinject.MSHRRelease) {
		panic("cache: MSHR release without allocate")
	}
	f.inUse--
	if f.probe != nil {
		f.probe.Counter("cache", "mshr", uint64(f.inUse))
	}
}

// TickOccupancy accumulates the occupancy integral over the given number
// of cycles at the current occupancy; call once per cycle with 1, or once
// for a stretch of cycles over which nothing allocates or releases.
//
//aurora:hotpath
func (f *MSHRFile) TickOccupancy(cycles uint64) { f.cycleInUse += uint64(f.inUse) * cycles }

// OccupancyIntegral returns the accumulated occupancy-over-cycles integral
// (the numerator of Utilisation) — the interval sampler differences it to
// produce per-interval mean occupancy.
//
//aurora:hotpath
func (f *MSHRFile) OccupancyIntegral() uint64 { return f.cycleInUse }

// Utilisation returns mean occupancy over the given cycle count.
func (f *MSHRFile) Utilisation(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(f.cycleInUse) / float64(cycles)
}

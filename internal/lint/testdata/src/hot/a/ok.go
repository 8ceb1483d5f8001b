package a

import "hot/dep"

// step is fully compliant: index arithmetic into reused storage, calls to
// annotated functions only, pointer-shaped and constant interface
// arguments, and an explicitly waived steady-state append.
//
//aurora:hotpath
func step(r *ring) uint64 {
	r.buf[r.n&7]++
	r.n++
	_ = dep.Fast(r.n)
	sub()
	box(r)          // pointer-shaped: stored in the interface word directly
	box(nil)        // nil: no boxing
	box(3)          // constant: materialized in read-only data
	v := ring{n: 1} // value composite literal stays on the stack
	//aurora:allow(alloc, fixture: steady-state capacity)
	r.spill = append(r.spill, uint64(v.n))
	return r.buf[0]
}

// wrap is the compliant ring step: a compare instead of a remainder,
// constant divisors, a power-of-two mask and float rates.
//
//aurora:hotpath
func wrap(r *ring, size int, a, b float64) float64 {
	i := r.n + 1
	if i == len(r.buf) {
		i = 0
	}
	r.n = i + r.n%8 + r.n/4 + r.n&(size-1)
	return a / b
}

// cold is not annotated, so nothing in it is checked.
func cold(r *ring) []uint64 {
	out := make([]uint64, 0, r.n)
	return append(out, r.buf[:]...)
}

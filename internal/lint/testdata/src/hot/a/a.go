// Package a seeds one violation of every construct hotpathalloc bans,
// plus the compliant counterparts in ok.go.
package a

import "hot/dep"

type ring struct {
	buf   [8]uint64
	n     int
	spill []uint64
	name  string
}

//aurora:hotpath
func box(v interface{}) {}

//aurora:hotpath
func sub() {}

func helper(x int) int { return x }

//aurora:hotpath
func bad(r *ring, bs []byte, s string) {
	_ = dep.Slow(r.n)     // want `call to non-hotpath function hot/dep.Slow`
	_ = helper(r.n)       // want `call to non-hotpath function hot/a.helper`
	f := func() { sub() } // want `closure literal allocates`
	f()
	m := map[int]int{} // want `map literal allocates`
	_ = m
	sl := []uint64{1, 2} // want `slice literal allocates`
	_ = sl
	p := &ring{} // want `&composite literal escapes to the heap`
	_ = p
	b := make([]byte, r.n) // want `make allocates`
	_ = b
	q := new(ring) // want `new allocates`
	_ = q
	r.spill = append(r.spill, 1) // want `append may grow its backing array`
	box(r.n)                     // want `int boxes into interface`
	_ = s + r.name               // want `string concatenation allocates`
	_ = string(bs)               // want `string conversion allocates`
	defer sub()                  // want `defer is banned`
	go sub()                     // want `go statement is banned`
}

//aurora:hotpath
func divide(r *ring, size int, w uint32) int {
	i := (r.n + 1) % len(r.spill) // want `integer % by a non-constant divisor`
	j := r.n / size               // want `integer / by a non-constant divisor`
	w %= uint32(size)             // want `integer %= by a non-constant divisor`
	//aurora:allow(alloc, no waiver covers a division)
	k := r.n / size // want `integer / by a non-constant divisor`
	return i + j + k + int(w)
}

//aurora:hotpath
func debugDump(r *ring) {
	print(r.name, ": ", r.n) // println/print are allocation-free runtime calls
}

package vm

// Sparse paged memory. Pages are allocated on first write; reads of
// unmapped memory return zero (modelling zero-initialised BSS and stack).

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse 32-bit byte-addressable memory. A one-entry page
// cache short-circuits the map lookup for the common case of consecutive
// accesses landing on one page (stack frames, sequential array walks),
// which is the dominant cost of the functional fast-forward path.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	lastPN   uint32
	lastPage *[pageSize]byte // nil = cache empty (page 0 is never cached)
}

// NewMemory creates an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, alloc bool) *[pageSize]byte {
	pn := addr >> pageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// LoadWord reads a 32-bit little-endian word. The address must be aligned;
// the VM checks alignment before calling.
func (m *Memory) LoadWord(addr uint32) uint32 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	o := addr & pageMask
	if o <= pageSize-4 {
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord writes a 32-bit little-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	p := m.page(addr, true)
	o := addr & pageMask
	if o <= pageSize-4 {
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadHalf reads a 16-bit little-endian halfword.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// LoadDouble reads a 64-bit little-endian doubleword.
func (m *Memory) LoadDouble(addr uint32) uint64 {
	return uint64(m.LoadWord(addr)) | uint64(m.LoadWord(addr+4))<<32
}

// StoreDouble writes a 64-bit little-endian doubleword.
func (m *Memory) StoreDouble(addr uint32, v uint64) {
	m.StoreWord(addr, uint32(v))
	m.StoreWord(addr+4, uint32(v>>32))
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.StoreByte(addr+uint32(i), v)
	}
}

// PageCount returns the number of mapped pages (for tests and footprint stats).
func (m *Memory) PageCount() int { return len(m.pages) }

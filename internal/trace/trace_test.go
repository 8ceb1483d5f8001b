package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"aurora/internal/isa"
)

func sampleRecords() []Record {
	mk := func(in isa.Instruction, addr uint32, taken bool, target uint32) Record {
		r := NewRecord(0x1000, in)
		r.MemAddr, r.Taken, r.Target = addr, taken, target
		return r
	}
	return []Record{
		mk(isa.Instruction{Op: isa.OpADDU, Rd: 8, Rs: 9, Rt: 10}, 0, false, 0),
		mk(isa.Instruction{Op: isa.OpLW, Rt: 8, Rs: 29, Imm: 4}, 0x2000, false, 0),
		mk(isa.Instruction{Op: isa.OpSW, Rt: 8, Rs: 29, Imm: -4}, 0x3000, false, 0),
		mk(isa.Instruction{Op: isa.OpBNE, Rs: 8, Rt: 0, Imm: -2}, 0, true, 0xff8),
		mk(isa.Instruction{Op: isa.OpFADD, Fd: 2, Fs: 4, Ft: 6, Double: true}, 0, false, 0),
		mk(isa.Instruction{Op: isa.OpLDC1, Ft: 4, Rs: 4, Imm: 8}, 0x4000, false, 0),
	}
}

// readAll drains s in batches of size records.
func readAll(s Stream, size int) []Record {
	var out []Record
	buf := make([]Record, size)
	for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
		out = append(out, buf[:n]...)
	}
	return out
}

func TestEncodingRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("count %d want %d", w.Count(), len(recs))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	all := readAll(r, 4)
	if len(all) != len(recs) {
		t.Fatalf("read %d records, want %d (%v)", len(all), len(recs), r.Err())
	}
	for i, want := range recs {
		got := all[i]
		if got.PC != want.PC || got.SI.In != want.SI.In || got.MemAddr != want.MemAddr ||
			got.Taken != want.Taken || got.Target != want.Target ||
			got.SI.Class != want.SI.Class || got.SI.Deps != want.SI.Deps {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got, want)
		}
	}
	if r.NextBatch(make([]Record, 1)) != 0 {
		t.Error("extra record after end")
	}
	if r.Err() != nil {
		t.Errorf("err after clean EOF: %v", r.Err())
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{'A', 'U', 'R', '3', 99})); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(sampleRecords()[0])
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if r.NextBatch(make([]Record, 1)) != 0 {
		t.Error("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
}

func TestSliceStream(t *testing.T) {
	recs := sampleRecords()
	s := &SliceStream{Records: recs}
	if n := len(readAll(s, 4)); n != len(recs) {
		t.Errorf("streamed %d want %d", n, len(recs))
	}
	s.Reset()
	if s.NextBatch(make([]Record, 1)) != 1 {
		t.Error("reset did not rewind")
	}
	if s.Err() != nil {
		t.Error("slice stream errored")
	}
}

// TestStreamConformance: every Stream in the package yields the same
// records and the same Err whatever batch size its consumer reads with.
func TestStreamConformance(t *testing.T) {
	var recs []Record
	pc := uint32(0x1000)
	for i := 0; i < 40; i++ {
		for _, r := range sampleRecords() {
			r.PC = pc
			recs = append(recs, r)
			pc += 4
		}
	}
	var enc bytes.Buffer
	w := NewWriter(&enc)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reader := func(b []byte) func() Stream {
		return func() Stream {
			r, err := NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	cases := []struct {
		name    string
		open    func() Stream
		want    []Record // nil: any order of all of recs (Reschedule reorders)
		wantErr bool
	}{
		{"slice", func() Stream { return &SliceStream{Records: recs} }, recs, false},
		{"reader", reader(enc.Bytes()), recs, false},
		{"reader/truncated", reader(enc.Bytes()[:enc.Len()-3]), recs[:len(recs)-1], true},
		{"reschedule", func() Stream { return NewReschedule(&SliceStream{Records: recs}) }, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.open()
			ref, refErr := readAll(s, 1), s.Err()
			if c.want != nil && !reflect.DeepEqual(ref, c.want) {
				t.Fatal("batch 1: records differ from the input")
			}
			if c.want == nil && len(ref) != len(recs) {
				t.Fatalf("batch 1: %d records, want %d", len(ref), len(recs))
			}
			if (refErr != nil) != c.wantErr {
				t.Fatalf("batch 1: Err() = %v, want error %v", refErr, c.wantErr)
			}
			for _, size := range []int{3, 64} {
				s := c.open()
				if got := readAll(s, size); !reflect.DeepEqual(got, ref) {
					t.Errorf("batch %d: records differ from batch 1", size)
				}
				if s.NextBatch(make([]Record, size)) != 0 {
					t.Errorf("batch %d: records after the end", size)
				}
				if err := s.Err(); fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Errorf("batch %d: Err() = %v, want %v", size, err, refErr)
				}
			}
		})
	}
}

func TestMix(t *testing.T) {
	var m Mix
	for _, r := range sampleRecords() {
		m.Add(r)
	}
	if m.Total != 6 {
		t.Errorf("total %d", m.Total)
	}
	if m.Loads != 2 { // lw + ldc1
		t.Errorf("loads %d", m.Loads)
	}
	if m.Stores != 1 {
		t.Errorf("stores %d", m.Stores)
	}
	if m.Branch != 1 || m.Taken != 1 {
		t.Errorf("branches %d/%d", m.Taken, m.Branch)
	}
	if f := m.Fraction(isa.ClassIntALU); f < 0.16 || f > 0.17 {
		t.Errorf("alu fraction %f", f)
	}
	if f := m.FPFraction(); f < 0.33 || f > 0.34 { // fadd + ldc1
		t.Errorf("fp fraction %f", f)
	}
	var empty Mix
	if empty.Fraction(isa.ClassIntALU) != 0 || empty.FPFraction() != 0 {
		t.Error("empty mix fractions not zero")
	}
}

// --- rescheduling pass ---

func mkRec(in isa.Instruction, pc uint32, addr uint32) Record {
	r := NewRecord(pc, in)
	r.MemAddr = addr
	return r
}

func TestRescheduleHoistsLoad(t *testing.T) {
	// alu; alu; load; use → the load must move ahead of the alus.
	pc := uint32(0x1000)
	recs := []Record{
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 9, Rs: 10, Rt: 11}, pc, 0),
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 12, Rs: 10, Rt: 11}, pc+4, 0),
		mkRec(isa.Instruction{Op: isa.OpLW, Rt: 8, Rs: 29}, pc+8, 0x2000),
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 13, Rs: 8, Rt: 8}, pc+12, 0),
	}
	out := readAll(NewReschedule(&SliceStream{Records: recs}), 3)
	if len(out) != 4 {
		t.Fatalf("got %d records", len(out))
	}
	if out[0].SI.In.Op != isa.OpLW {
		t.Errorf("load not hoisted first: %v", out[0].SI.In.Op)
	}
	if out[3].SI.In.Rd != 13 {
		t.Errorf("consumer not last: %+v", out[3].SI.In)
	}
	// PCs re-assigned sequentially from the block base.
	for i, r := range out {
		if r.PC != pc+uint32(i)*4 {
			t.Errorf("record %d PC %#x", i, r.PC)
		}
	}
}

func TestReschedulePreservesDependences(t *testing.T) {
	// A RAW chain must keep its order.
	pc := uint32(0x1000)
	recs := []Record{
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 8, Rs: 10, Rt: 11}, pc, 0),
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 9, Rs: 8, Rt: 8}, pc+4, 0),
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 12, Rs: 9, Rt: 9}, pc+8, 0),
	}
	var dsts []uint8
	for _, r := range readAll(NewReschedule(&SliceStream{Records: recs}), 3) {
		dsts = append(dsts, r.SI.In.Rd)
	}
	if dsts[0] != 8 || dsts[1] != 9 || dsts[2] != 12 {
		t.Errorf("RAW chain reordered: %v", dsts)
	}
}

func TestReschedulePreservesMemoryOrder(t *testing.T) {
	pc := uint32(0x1000)
	recs := []Record{
		mkRec(isa.Instruction{Op: isa.OpSW, Rt: 8, Rs: 29}, pc, 0x2000),
		mkRec(isa.Instruction{Op: isa.OpLW, Rt: 9, Rs: 29}, pc+4, 0x2000),
	}
	out := readAll(NewReschedule(&SliceStream{Records: recs}), 1)
	r1, r2 := out[0], out[1]
	if r1.SI.In.Op != isa.OpSW || r2.SI.In.Op != isa.OpLW {
		t.Errorf("store/load reordered: %v %v", r1.SI.In.Op, r2.SI.In.Op)
	}
}

func TestReschedulePinsControlAndDelaySlot(t *testing.T) {
	pc := uint32(0x1000)
	br := mkRec(isa.Instruction{Op: isa.OpBNE, Rs: 8, Rt: 0, Imm: -4}, pc+8, 0)
	br.Taken = true
	br.Target = 0x1000
	recs := []Record{
		mkRec(isa.Instruction{Op: isa.OpLW, Rt: 8, Rs: 29}, pc, 0x2000),
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 9, Rs: 10, Rt: 11}, pc+4, 0),
		br,
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 12, Rs: 10, Rt: 11}, pc+12, 0), // delay slot
		// next block
		mkRec(isa.Instruction{Op: isa.OpADDU, Rd: 13, Rs: 10, Rt: 11}, 0x1000, 0),
	}
	out := readAll(NewReschedule(&SliceStream{Records: recs}), 3)
	if len(out) != 5 {
		t.Fatalf("%d records", len(out))
	}
	if out[2].SI.In.Op != isa.OpBNE {
		t.Errorf("branch moved: position 2 is %v", out[2].SI.In.Op)
	}
	if out[3].SI.In.Rd != 12 {
		t.Errorf("delay slot moved: %+v", out[3].SI.In)
	}
	if out[4].PC != 0x1000 {
		t.Errorf("next block PC %#x", out[4].PC)
	}
}

func TestRescheduleCountPreserved(t *testing.T) {
	// Same record multiset in, same out (by opcode counts).
	var recs []Record
	pc := uint32(0x1000)
	for i := 0; i < 200; i++ {
		op := []isa.Op{isa.OpADDU, isa.OpLW, isa.OpSW, isa.OpXOR}[i%4]
		in := isa.Instruction{Op: op, Rd: uint8(8 + i%4), Rs: 29, Rt: uint8(10 + i%3)}
		recs = append(recs, mkRec(in, pc, uint32(0x2000+i*4)))
		pc += 4
	}
	counts := map[isa.Op]int{}
	n := 0
	for _, r := range readAll(NewReschedule(&SliceStream{Records: recs}), 64) {
		counts[r.SI.In.Op]++
		n++
	}
	if n != 200 {
		t.Fatalf("records %d want 200", n)
	}
	if counts[isa.OpLW] != 50 || counts[isa.OpSW] != 50 {
		t.Errorf("op counts %v", counts)
	}
}

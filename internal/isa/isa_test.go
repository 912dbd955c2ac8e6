package isa

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindClassification(t *testing.T) {
	cases := []struct {
		k               Kind
		pim, mem, write bool
	}{
		{KindPIMLoad, true, true, false},
		{KindPIMCompute, true, true, false},
		{KindPIMStore, true, true, true},
		{KindPIMScale, true, true, true},
		{KindPIMExec, true, false, false},
		{KindOrderLight, false, false, false},
		{KindFence, false, false, false},
		{KindHostLoad, false, true, false},
		{KindHostStore, false, true, true},
	}
	for _, c := range cases {
		if c.k.IsPIM() != c.pim {
			t.Errorf("%v.IsPIM() = %v, want %v", c.k, c.k.IsPIM(), c.pim)
		}
		if c.k.IsMemAccess() != c.mem {
			t.Errorf("%v.IsMemAccess() = %v, want %v", c.k, c.k.IsMemAccess(), c.mem)
		}
		if c.k.IsWrite() != c.write {
			t.Errorf("%v.IsWrite() = %v, want %v", c.k, c.k.IsWrite(), c.write)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPIMLoad.String() != "PIM_Load" || KindOrderLight.String() != "OrderLight" {
		t.Error("Kind.String() mismatch")
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("unknown Kind should render as Kind(n)")
	}
}

func TestALUOpApply(t *testing.T) {
	cases := []struct {
		op          ALUOp
		ts, operand int32
		imm, want   int32
	}{
		{OpNop, 7, 100, 0, 7},
		{OpAdd, 3, 4, 0, 7},
		{OpMul, 3, 4, 0, 12},
		{OpMAC, 10, 4, 3, 22},
		{OpScale, 0, 5, 3, 15},
		{OpCopy, 99, 5, 0, 5},
		{OpSub, 9, 4, 0, 5},
		{OpMax, 3, 8, 0, 8},
		{OpMax, 9, 8, 0, 9},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpIncr, 99, 5, 1, 6},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.ts, c.operand, c.imm); got != c.want {
			t.Errorf("%v.Apply(%d,%d,%d) = %d, want %d", c.op, c.ts, c.operand, c.imm, got, c.want)
		}
	}
}

func TestALUOpApplyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on unknown op did not panic")
		}
	}()
	ALUOp(99).Apply(0, 0, 0)
}

func TestOLPacketEncodeLayout(t *testing.T) {
	// Hand-computed Figure 8 layout: pktID in bits [1:0], channel
	// [5:2], group [9:6], number [41:10].
	p := OLPacket{PktID: PktIDOrderLight, Channel: 0xA, Group: 0x5, Number: 0xDEADBEEF}
	w := p.Encode()
	if got := w & 0b11; got != uint64(PktIDOrderLight) {
		t.Errorf("pktID bits = %b", got)
	}
	if got := w >> 2 & 0b1111; got != 0xA {
		t.Errorf("channel bits = %x, want A", got)
	}
	if got := w >> 6 & 0b1111; got != 0x5 {
		t.Errorf("group bits = %x, want 5", got)
	}
	if got := uint32(w >> 10); got != 0xDEADBEEF {
		t.Errorf("number bits = %x, want DEADBEEF", got)
	}
	if OLPacketBits != 42 {
		t.Errorf("OLPacketBits = %d, want 42 (2+4+4+32)", OLPacketBits)
	}
}

func TestOLPacketRoundTripProperty(t *testing.T) {
	f := func(ch, grp uint8, num uint32) bool {
		p := OLPacket{PktID: PktIDOrderLight, Channel: ch & 0xF, Group: grp & 0xF, Number: num}
		d := DecodeOLPacket(p.Encode())
		return d.PktID == p.PktID && d.Channel == p.Channel &&
			d.Group == p.Group && d.Number == p.Number
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOLPacketEncodeFitsWidth(t *testing.T) {
	f := func(ch, grp uint8, num uint32) bool {
		p := OLPacket{PktID: PktIDOrderLight, Channel: ch & 0xF, Group: grp & 0xF, Number: num}
		return p.Encode()>>OLPacketBits == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOLPacketValid(t *testing.T) {
	good := OLPacket{PktID: PktIDOrderLight, Channel: 15, Group: 15, Number: 1}
	if !good.Valid() {
		t.Error("maximal in-range packet reported invalid")
	}
	for _, bad := range []OLPacket{
		{PktID: PktIDData, Channel: 0, Group: 0},
		{PktID: PktIDOrderLight, Channel: 16},
		{PktID: PktIDOrderLight, Group: 16},
	} {
		if bad.Valid() {
			t.Errorf("packet %+v reported valid", bad)
		}
	}
}

func TestOLPacketGroupsDedup(t *testing.T) {
	// The base group comes first; extension groups follow once each in
	// ascending order, whatever order the instruction listed them in.
	p := OLPacket{PktID: PktIDOrderLight, Group: 2, ExtraMask: GroupMask([]uint8{4, 2, 3, 4})}
	got := p.Groups()
	want := []uint8{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Groups() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Groups() = %v, want %v", got, want)
		}
	}
}

func TestRequestString(t *testing.T) {
	r := Request{ID: 1, Kind: KindPIMLoad, Channel: 2, Group: 1, Bank: 3, Row: 7, Addr: 0x1000, Seq: 5}
	s := r.String()
	for _, sub := range []string{"PIM_Load", "ch2", "g1", "row7", "0x1000"} {
		if !strings.Contains(s, sub) {
			t.Errorf("Request.String() = %q missing %q", s, sub)
		}
	}
	ol := Request{ID: 2, Kind: KindOrderLight, OL: OLPacket{PktID: PktIDOrderLight, Channel: 1, Group: 0, Number: 9}}
	if !strings.Contains(ol.String(), "OL{ch1 g0 #9}") {
		t.Errorf("OL Request.String() = %q", ol.String())
	}
	ol.OL.ExtraMask = GroupMask([]uint8{5, 0, 3})
	if !strings.Contains(ol.String(), "OL{ch1 g0+[3 5] #9}") {
		t.Errorf("multi-group OL Request.String() = %q", ol.String())
	}
}

// TestRequestLayout pins the diet every queue of the model relies on:
// a Request stays within 64 bytes and holds no pointer, so queue
// buffers are plain memory the garbage collector never scans and a
// head read in place copies one cache line at most. A field addition
// that breaks either property fails here.
func TestRequestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want <= 64", got)
	}
	if path, ok := pointerFree(reflect.TypeOf(Request{}), "Request"); !ok {
		t.Errorf("%s holds a pointer-carrying type; Request must stay pointer-free", path)
	}
}

// pointerFree walks t and reports the first field path whose type is,
// or contains, a pointer, slice, map, string, channel, function or
// interface.
func pointerFree(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	default:
		return path + " (" + t.Kind().String() + ")", false
	}
}

func TestPointerFreeRejects(t *testing.T) {
	type withSlice struct {
		A int
		B []uint8
	}
	type nested struct{ In struct{ S string } }
	for _, v := range []any{withSlice{}, nested{}, [2]*int{}, map[int]int{}} {
		if _, ok := pointerFree(reflect.TypeOf(v), "v"); ok {
			t.Errorf("pointerFree(%T) = true, want false", v)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Kind: KindPIMStore, Count: 8, Addr: 0x40, Group: 2}
	if !strings.Contains(in.String(), "PIM_Store x8") {
		t.Errorf("Instr.String() = %q", in.String())
	}
}

func TestALUOpString(t *testing.T) {
	if OpMAC.String() != "mac" || OpScale.String() != "scale" {
		t.Error("ALUOp.String() mismatch")
	}
	if !strings.HasPrefix(ALUOp(42).String(), "ALUOp(") {
		t.Error("unknown ALUOp should render as ALUOp(n)")
	}
}

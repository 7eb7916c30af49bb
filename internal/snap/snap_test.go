package snap

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.U64(5, 6, 7)
	w.I64(-42)
	w.Int(123456)
	w.F64(3.25)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools corrupted")
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %#x", got)
	}
	for _, want := range []uint64{5, 6, 7} {
		if got := r.U64(); got != want {
			t.Errorf("bulk U64 = %d, want %d", got, want)
		}
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	w := NewWriter(0)
	w.U64(12345)
	data := w.Finish()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := NewReader(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	if _, err := NewReader(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestStrictBool(t *testing.T) {
	w := NewWriter(0)
	w.U8(2) // not a legal bool byte
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Bool()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "not 0 or 1") {
		t.Fatalf("bool byte 2 accepted: %v", r.Err())
	}
}

func TestTruncationSticks(t *testing.T) {
	w := NewWriter(0)
	w.U8(1)
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.U64() // needs 8 bytes, only 1 in the payload
	if r.Err() == nil {
		t.Fatal("truncated read succeeded")
	}
	// Sticky: later reads keep failing and Close reports the first cause.
	if r.U32() != 0 || r.Err() == nil {
		t.Fatal("error did not stick")
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close ignored the sticky error")
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.U8(1)
	w.U8(2)
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Fatalf("trailing byte not reported: %v", err)
	}
}

func TestLenGuardsAllocation(t *testing.T) {
	w := NewWriter(0)
	w.U64(1 << 40) // a length no stream this short can satisfy
	data := w.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Len(8); n != 0 || r.Err() == nil {
		t.Fatalf("oversized length accepted: n=%d err=%v", n, r.Err())
	}
}

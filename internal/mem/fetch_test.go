package mem

import (
	"strings"
	"testing"
	"unsafe"
)

func TestPacketSizing(t *testing.T) {
	load := &Fetch{Type: DataRead, SizeBytes: 128}
	if got := load.RequestBytes(); got != 8 {
		t.Errorf("load request = %d B, want 8 (header only)", got)
	}
	if got := load.ReplyBytes(); got != 136 {
		t.Errorf("load reply = %d B, want 136 (header + line)", got)
	}
	store := &Fetch{Type: DataWrite, SizeBytes: 128}
	if got := store.RequestBytes(); got != 136 {
		t.Errorf("store request = %d B, want 136", got)
	}
	wb := &Fetch{Type: WriteBack, SizeBytes: 128}
	if got := wb.RequestBytes(); got != 136 {
		t.Errorf("write-back request = %d B, want 136", got)
	}
	inst := &Fetch{Type: InstRead, SizeBytes: 128}
	if got := inst.RequestBytes(); got != 8 {
		t.Errorf("inst request = %d B, want 8", got)
	}
}

func TestFlits(t *testing.T) {
	cases := []struct{ bytes, flit, want int }{
		{8, 32, 1},    // load request on baseline request net
		{136, 32, 5},  // load reply on baseline reply net
		{136, 16, 9},  // store request on 16 B request net
		{136, 48, 3},  // load reply on 48 B reply net
		{136, 68, 2},  // load reply on 68 B reply net
		{136, 52, 3},  // load reply on 52 B reply net
		{136, 128, 2}, // scaled 128 B flits
		{32, 32, 1},
		{33, 32, 2},
		{0, 32, 1}, // packets occupy at least one flit
	}
	for _, c := range cases {
		if got := Flits(c.bytes, c.flit); got != c.want {
			t.Errorf("Flits(%d, %d) = %d, want %d", c.bytes, c.flit, got, c.want)
		}
	}
}

func TestNeedsReply(t *testing.T) {
	if !DataRead.NeedsReply() || !InstRead.NeedsReply() {
		t.Error("reads must need replies")
	}
	if DataWrite.NeedsReply() || WriteBack.NeedsReply() {
		t.Error("writes must not need replies")
	}
}

func TestAccessTypeString(t *testing.T) {
	for _, typ := range []AccessType{DataRead, DataWrite, InstRead, WriteBack} {
		if s := typ.String(); s == "" || strings.HasPrefix(s, "AccessType") {
			t.Errorf("missing string for %d", typ)
		}
	}
}

// TestFetchFitsOneCacheLine pins the pooled fetch at 64 bytes, one host
// cache line: a field added later must be worth the second line it costs.
func TestFetchFitsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Fetch{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Fetch{}) = %d B, want 64", got)
	}
}

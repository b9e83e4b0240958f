package ipmio

import (
	"testing"
	"unsafe"
)

// TestEventIs48Bytes pins the trace record's size: a flagship run
// keeps ~236,000 of them, so every byte here is ~0.24 MB a run. A
// string field or a widened rank would push it back past 48.
func TestEventIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Errorf("ipmio.Event is %d bytes, want <= 48", n)
	}
}

// TestFilesInternsOnce: a path gets one id however often it is
// interned, ids count up from 1 in first-intern order, and "" is id 0.
func TestFilesInternsOnce(t *testing.T) {
	var f Files
	if id := f.Intern(""); id != 0 {
		t.Errorf(`Intern("") = %d, want 0`, id)
	}
	a, b := f.Intern("/scratch/a"), f.Intern("/scratch/b")
	if a != 1 || b != 2 || f.Intern("/scratch/a") != a {
		t.Errorf("ids %d, %d and %d again, want 1, 2 and 1", a, b, f.Intern("/scratch/a"))
	}
	if f.Len() != 3 {
		t.Errorf("Len %d, want 3", f.Len())
	}
	for id, want := range map[uint32]string{0: "", 1: "/scratch/a", 2: "/scratch/b", 3: ""} {
		if got := f.Name(id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
	var none *Files
	if none.Name(1) != "" || none.Len() != 1 {
		t.Error("a nil table must hold only id 0")
	}
}

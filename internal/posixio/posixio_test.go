package posixio

import (
	"errors"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/lustre"
	"ensembleio/internal/sim"
)

func testSystem() (*sim.Engine, *cluster.Cluster, *System) {
	eng := sim.NewEngine()
	prof := cluster.Franklin()
	prof.NoiseSigma = 0
	prof.StragglerProb = 0
	prof.BackgroundMeanMBps = 0
	prof.ConflictProbPerWriterPerOST = 0
	cl := cluster.New(eng, prof, 2, 11)
	return eng, cl, NewSystem(lustre.NewFS(cl))
}

func TestOpenCreateWriteReadRoundTrip(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, err := task.Open(p, "/scratch/f", OCreat|ORdwr)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if n, err := task.Write(p, fd, 50e6); err != nil || n != 50e6 {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		if off, _ := task.Offset(fd); off != 50e6 {
			t.Errorf("offset after write = %d, want 50e6", off)
		}
		if _, err := task.Seek(fd, 0, SeekSet); err != nil {
			t.Errorf("seek: %v", err)
		}
		if n, err := task.Read(p, fd, 20e6); err != nil || n != 20e6 {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		// Read past EOF is short.
		if n, err := task.Read(p, fd, 40e6); err != nil || n != 30e6 {
			t.Errorf("short read: n=%d err=%v, want 30e6", n, err)
		}
		if n, err := task.Read(p, fd, 1e6); err != nil || n != 0 {
			t.Errorf("read at EOF: n=%d err=%v, want 0", n, err)
		}
		if err := task.Close(p, fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	eng.Run()
}

func TestOpenMissingFileFails(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		if _, err := task.Open(p, "/scratch/nope", ORdonly); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing: err=%v, want ErrNotExist", err)
		}
	})
	eng.Run()
}

func TestAccessModeEnforcement(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		ro, _ := task.Open(p, "/scratch/a", OCreat|ORdonly)
		if _, err := task.Write(p, ro, 1e6); !errors.Is(err, ErrReadOnly) {
			t.Errorf("write on O_RDONLY: err=%v, want ErrReadOnly", err)
		}
		wo, _ := task.Open(p, "/scratch/a", OWronly)
		if _, err := task.Read(p, wo, 1e6); !errors.Is(err, ErrWriteOnly) {
			t.Errorf("read on O_WRONLY: err=%v, want ErrWriteOnly", err)
		}
	})
	eng.Run()
}

// TestBadFDErrors: every call rejects a number that names no open
// descriptor — the reserved 0-2, a negative number, one never issued,
// and one already closed (so a double Close fails too).
func TestBadFDErrors(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		closed, _ := task.Open(p, "/scratch/closed", OCreat|ORdwr)
		open, _ := task.Open(p, "/scratch/open", OCreat|ORdwr)
		if err := task.Close(p, closed); err != nil {
			t.Fatalf("close: %v", err)
		}
		for _, num := range []int{0, 1, 2, -1, -4, open + 1, 99, closed} {
			for name, err := range map[string]error{
				"Close":  task.Close(p, num),
				"Fsync":  task.Fsync(p, num),
				"Read":   second(task.Read(p, num, 10)),
				"Write":  second(task.Write(p, num, 10)),
				"Pread":  second(task.Pread(p, num, 0, 10)),
				"Pwrite": second(task.Pwrite(p, num, 0, 10)),
				"Seek":   second(task.Seek(num, 0, SeekSet)),
			} {
				if !errors.Is(err, ErrBadFD) {
					t.Errorf("%s(%d): err=%v, want ErrBadFD", name, num, err)
				}
			}
			if _, ok := task.Path(num); ok {
				t.Errorf("Path(%d) succeeded", num)
			}
			if _, ok := task.Offset(num); ok {
				t.Errorf("Offset(%d) succeeded", num)
			}
		}
		if got, ok := task.Path(open); !ok || got != "/scratch/open" {
			t.Errorf("open fd %d lost: Path = %q,%v", open, got, ok)
		}
	})
	eng.Run()
}

func second[T any](_ T, err error) error { return err }

// TestFDNumbersNeverReused: descriptor numbers are issued in order
// from 3 and a closed number is never handed out again.
func TestFDNumbersNeverReused(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		want := 3
		for i := 0; i < 5; i++ {
			fd, err := task.Open(p, "/scratch/reuse", OCreat|OWronly)
			if err != nil || fd != want {
				t.Fatalf("open %d: fd=%d err=%v, want fd %d", i, fd, err, want)
			}
			if err := task.Close(p, fd); err != nil {
				t.Fatalf("close %d: %v", fd, err)
			}
			want++
		}
	})
	eng.Run()
}

func TestSeekWhence(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/s", OCreat|ORdwr)
		task.Write(p, fd, 10e6)
		if off, _ := task.Seek(fd, 2e6, SeekSet); off != 2e6 {
			t.Errorf("SeekSet -> %d", off)
		}
		if off, _ := task.Seek(fd, 3e6, SeekCur); off != 5e6 {
			t.Errorf("SeekCur -> %d", off)
		}
		if off, _ := task.Seek(fd, -1e6, SeekEnd); off != 9e6 {
			t.Errorf("SeekEnd -> %d", off)
		}
		if _, err := task.Seek(fd, 0, 42); err == nil {
			t.Error("bad whence accepted")
		}
	})
	eng.Run()
}

func TestSharedFileVisibleAcrossTasks(t *testing.T) {
	eng, cl, sys := testSystem()
	w := sys.NewTask(0, cl.Nodes[0])
	r := sys.NewTask(4, cl.Nodes[1])
	eng.Spawn("writer", func(p *sim.Proc) {
		fd, _ := w.Open(p, "/scratch/shared", OCreat|OWronly)
		w.Write(p, fd, 30e6)
		w.Close(p, fd)
	})
	eng.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(30) // after the write completes
		fd, err := r.Open(p, "/scratch/shared", ORdonly)
		if err != nil {
			t.Errorf("reader open: %v", err)
			return
		}
		if n, _ := r.Read(p, fd, 30e6); n != 30e6 {
			t.Errorf("reader got %d bytes, want 30e6", n)
		}
	})
	eng.Run()
}

func TestSmallWriteUsesMetadataPath(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/meta", OCreat|OWronly)
		start := p.Now()
		task.Write(p, fd, 2048) // < SmallIOBytes
		dur := p.Now() - start
		// Metadata path: latency-bound, far from any streaming rate.
		if dur <= 0 {
			t.Error("small write took no time")
		}
		if cl.Nodes[0].DirtyMB != 0 {
			t.Error("small write must not dirty the cache")
		}
	})
	eng.Run()
}

func TestPathLookup(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/look", OCreat|OWronly)
		if got, ok := task.Path(fd); !ok || got != "/scratch/look" {
			t.Errorf("Path(%d) = %q,%v", fd, got, ok)
		}
		if _, ok := task.Path(99); ok {
			t.Error("Path of bad fd should fail")
		}
	})
	eng.Run()
}

func TestPwritePreadExplicitOffsets(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/p", OCreat|ORdwr)
		if n, err := task.Pwrite(p, fd, 100e6, 20e6); err != nil || n != 20e6 {
			t.Errorf("pwrite: n=%d err=%v", n, err)
		}
		// Pwrite must not move the fd offset.
		if off, _ := task.Offset(fd); off != 0 {
			t.Errorf("offset %d after pwrite, want 0", off)
		}
		// File extended to the write's end.
		if n, err := task.Pread(p, fd, 110e6, 20e6); err != nil || n != 10e6 {
			t.Errorf("pread at tail: n=%d err=%v, want short 10e6", n, err)
		}
		if off, _ := task.Offset(fd); off != 0 {
			t.Errorf("offset %d after pread, want 0", off)
		}
	})
	eng.Run()
}

func TestOpenTruncResetsSize(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/tr", OCreat|OWronly)
		task.Write(p, fd, 30e6)
		task.Close(p, fd)
		fd2, _ := task.Open(p, "/scratch/tr", OWronly|OTrunc)
		if off, _ := task.Seek(fd2, 0, SeekEnd); off != 0 {
			t.Errorf("size after O_TRUNC = %d, want 0", off)
		}
	})
	eng.Run()
}

func TestSeekClampsNegative(t *testing.T) {
	eng, cl, sys := testSystem()
	task := sys.NewTask(0, cl.Nodes[0])
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := task.Open(p, "/scratch/neg", OCreat|ORdwr)
		if off, _ := task.Seek(fd, -5, SeekSet); off != 0 {
			t.Errorf("negative seek gave %d, want clamp to 0", off)
		}
	})
	eng.Run()
}

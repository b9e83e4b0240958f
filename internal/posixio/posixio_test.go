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

// step is one step of a test script: it issues at most one call on
// task with completion k (calling k itself if it issues none) and gets
// the previous call's result.
type step func(task *Task, n int64, err error, k Done)

// spawnScript spawns a task with an I/O context for rank on node and
// runs steps on it in order, then exits.
func spawnScript(eng *sim.Engine, sys *System, rank int, node *cluster.Node, steps ...step) {
	eng.Spawn("t", func(p *sim.Task) {
		task := &Task{}
		sys.InitTask(task, rank, node, p)
		i := 0
		var next Done
		next = func(n int64, err error) {
			if i == len(steps) {
				p.Exit()
				return
			}
			i++
			steps[i-1](task, n, err, next)
		}
		next(0, nil)
	})
}

// inline issues call and returns its result, failing the test unless
// the call completed before returning (as a rejected call does).
func inline(t *testing.T, call func(k Done)) (int64, error) {
	t.Helper()
	var n int64
	var err error
	done := false
	call(func(m int64, e error) { n, err, done = m, e, true })
	if !done {
		t.Fatal("call did not complete at once")
	}
	return n, err
}

// openStep opens path with flags and stores the descriptor in *fd.
func openStep(t *testing.T, path string, flags int, fd *int) (step, step) {
	return func(task *Task, _ int64, _ error, k Done) { task.Open(path, flags, k) },
		func(_ *Task, n int64, err error, k Done) {
			if err != nil {
				t.Errorf("open %s: %v", path, err)
			}
			*fd = int(n)
			k(0, nil)
		}
}

// want checks the previous call's result.
func want(t *testing.T, what string, wantN int64) step {
	return func(_ *Task, n int64, err error, k Done) {
		if err != nil || n != wantN {
			t.Errorf("%s: n=%d err=%v, want %d", what, n, err, wantN)
		}
		k(0, nil)
	}
}

func TestOpenCreateWriteReadRoundTrip(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	open, opened := openStep(t, "/scratch/f", OCreat|ORdwr, &fd)
	closed := false
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) { task.Write(fd, 50e6, k) },
		want(t, "write", 50e6),
		func(task *Task, _ int64, _ error, k Done) {
			if off, _ := task.Offset(fd); off != 50e6 {
				t.Errorf("offset after write = %d, want 50e6", off)
			}
			if _, err := task.Seek(fd, 0, SeekSet); err != nil {
				t.Errorf("seek: %v", err)
			}
			task.Read(fd, 20e6, k)
		},
		want(t, "read", 20e6),
		// Read past EOF is short.
		func(task *Task, _ int64, _ error, k Done) { task.Read(fd, 40e6, k) },
		want(t, "short read", 30e6),
		func(task *Task, _ int64, _ error, k Done) {
			if n, err := inline(t, func(k Done) { task.Read(fd, 1e6, k) }); err != nil || n != 0 {
				t.Errorf("read at EOF: n=%d err=%v, want 0", n, err)
			}
			task.Close(fd, k)
		},
		want(t, "close", 0),
		func(_ *Task, _ int64, _ error, k Done) {
			closed = true
			k(0, nil)
		})
	eng.Run()
	if !closed {
		t.Error("script did not finish")
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	eng, cl, sys := testSystem()
	spawnScript(eng, sys, 0, cl.Nodes[0], func(task *Task, _ int64, _ error, k Done) {
		if _, err := inline(t, func(k Done) { task.Open("/scratch/nope", ORdonly, k) }); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing: err=%v, want ErrNotExist", err)
		}
		k(0, nil)
	})
	eng.Run()
}

func TestAccessModeEnforcement(t *testing.T) {
	eng, cl, sys := testSystem()
	var ro, wo int
	openRO, openedRO := openStep(t, "/scratch/a", OCreat|ORdonly, &ro)
	openWO, openedWO := openStep(t, "/scratch/a", OWronly, &wo)
	spawnScript(eng, sys, 0, cl.Nodes[0], openRO, openedRO, openWO, openedWO,
		func(task *Task, _ int64, _ error, k Done) {
			if _, err := inline(t, func(k Done) { task.Write(ro, 1e6, k) }); !errors.Is(err, ErrReadOnly) {
				t.Errorf("write on O_RDONLY: err=%v, want ErrReadOnly", err)
			}
			if _, err := inline(t, func(k Done) { task.Read(wo, 1e6, k) }); !errors.Is(err, ErrWriteOnly) {
				t.Errorf("read on O_WRONLY: err=%v, want ErrWriteOnly", err)
			}
			k(0, nil)
		})
	eng.Run()
}

// TestBadFDErrors: every call rejects a number that names no open
// descriptor — the reserved 0-2, a negative number, one never issued,
// and one already closed (so a double Close fails too) — and reports
// it at once.
func TestBadFDErrors(t *testing.T) {
	eng, cl, sys := testSystem()
	var closed, open int
	openC, openedC := openStep(t, "/scratch/closed", OCreat|ORdwr, &closed)
	openO, openedO := openStep(t, "/scratch/open", OCreat|ORdwr, &open)
	spawnScript(eng, sys, 0, cl.Nodes[0], openC, openedC, openO, openedO,
		func(task *Task, _ int64, _ error, k Done) { task.Close(closed, k) },
		want(t, "close", 0),
		func(task *Task, _ int64, _ error, k Done) {
			for _, num := range []int{0, 1, 2, -1, -4, open + 1, 99, closed} {
				for name, call := range map[string]func(k Done){
					"Close":  func(k Done) { task.Close(num, k) },
					"Fsync":  func(k Done) { task.Fsync(num, k) },
					"Read":   func(k Done) { task.Read(num, 10, k) },
					"Write":  func(k Done) { task.Write(num, 10, k) },
					"Pread":  func(k Done) { task.Pread(num, 0, 10, k) },
					"Pwrite": func(k Done) { task.Pwrite(num, 0, 10, k) },
					"Seek": func(k Done) {
						off, err := task.Seek(num, 0, SeekSet)
						k(off, err)
					},
				} {
					if _, err := inline(t, call); !errors.Is(err, ErrBadFD) {
						t.Errorf("%s(%d): err=%v, want ErrBadFD", name, num, err)
					}
				}
				if _, ok := task.Offset(num); ok {
					t.Errorf("Offset(%d) succeeded", num)
				}
			}
			if _, err := task.Seek(open, 0, SeekSet); err != nil {
				t.Errorf("open fd %d lost: Seek: %v", open, err)
			}
			k(0, nil)
		})
	eng.Run()
}

// TestFDNumbersNeverReused: descriptor numbers are issued in order
// from 3 and a closed number is never handed out again.
func TestFDNumbersNeverReused(t *testing.T) {
	eng, cl, sys := testSystem()
	var steps []step
	for i := 0; i < 5; i++ {
		fd := 3 + i
		steps = append(steps,
			func(task *Task, _ int64, _ error, k Done) { task.Open("/scratch/reuse", OCreat|OWronly, k) },
			want(t, "open", int64(fd)),
			func(task *Task, _ int64, _ error, k Done) { task.Close(fd, k) },
			want(t, "close", 0))
	}
	spawnScript(eng, sys, 0, cl.Nodes[0], steps...)
	eng.Run()
}

func TestSeekWhence(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	open, opened := openStep(t, "/scratch/s", OCreat|ORdwr, &fd)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) { task.Write(fd, 10e6, k) },
		func(task *Task, _ int64, _ error, k Done) {
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
			k(0, nil)
		})
	eng.Run()
}

func TestSharedFileVisibleAcrossTasks(t *testing.T) {
	eng, cl, sys := testSystem()
	var wfd, rfd int
	wopen, wopened := openStep(t, "/scratch/shared", OCreat|OWronly, &wfd)
	spawnScript(eng, sys, 0, cl.Nodes[0], wopen, wopened,
		func(task *Task, _ int64, _ error, k Done) { task.Write(wfd, 30e6, k) },
		func(task *Task, _ int64, _ error, k Done) { task.Close(wfd, k) })
	ropen, ropened := openStep(t, "/scratch/shared", ORdonly, &rfd)
	spawnScript(eng, sys, 4, cl.Nodes[1],
		func(task *Task, _ int64, _ error, k Done) {
			task.req.T.Sleep(30, func() { k(0, nil) }) // after the write completes
		},
		ropen, ropened,
		func(task *Task, _ int64, _ error, k Done) { task.Read(rfd, 30e6, k) },
		want(t, "reader", 30e6))
	eng.Run()
}

func TestSmallWriteUsesMetadataPath(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	var start sim.Time
	open, opened := openStep(t, "/scratch/meta", OCreat|OWronly, &fd)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) {
			start = eng.Now()
			task.Write(fd, 2048, k) // < SmallIOBytes
		},
		func(_ *Task, _ int64, _ error, k Done) {
			// Metadata path: latency-bound, far from any streaming rate.
			if eng.Now() <= start {
				t.Error("small write took no time")
			}
			if cl.Nodes[0].DirtyMB != 0 {
				t.Error("small write must not dirty the cache")
			}
			k(0, nil)
		})
	eng.Run()
}

// TestPathLookup: a descriptor resolves to the file opened at its
// path, and a number never issued resolves to nothing.
func TestPathLookup(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	open, opened := openStep(t, "/scratch/look", OCreat|OWronly, &fd)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) { task.Write(fd, 5e6, k) },
		want(t, "write", 5e6),
		func(task *Task, _ int64, _ error, k Done) {
			if f := sys.FS.Lookup("/scratch/look"); f == nil || f.Size != 5e6 {
				t.Errorf("write through fd %d did not reach /scratch/look: %+v", fd, f)
			}
			if _, err := inline(t, func(k Done) { task.Write(99, 10, k) }); !errors.Is(err, ErrBadFD) {
				t.Errorf("write to fd 99: err=%v, want ErrBadFD", err)
			}
			k(0, nil)
		})
	eng.Run()
}

func TestPwritePreadExplicitOffsets(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	open, opened := openStep(t, "/scratch/p", OCreat|ORdwr, &fd)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) { task.Pwrite(fd, 100e6, 20e6, k) },
		want(t, "pwrite", 20e6),
		func(task *Task, _ int64, _ error, k Done) {
			// Pwrite must not move the fd offset.
			if off, _ := task.Offset(fd); off != 0 {
				t.Errorf("offset %d after pwrite, want 0", off)
			}
			// File extended to the write's end.
			task.Pread(fd, 110e6, 20e6, k)
		},
		want(t, "pread at tail (short)", 10e6),
		func(task *Task, _ int64, _ error, k Done) {
			if off, _ := task.Offset(fd); off != 0 {
				t.Errorf("offset %d after pread, want 0", off)
			}
			k(0, nil)
		})
	eng.Run()
}

func TestOpenTruncResetsSize(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd, fd2 int
	open, opened := openStep(t, "/scratch/tr", OCreat|OWronly, &fd)
	reopen, reopened := openStep(t, "/scratch/tr", OWronly|OTrunc, &fd2)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) { task.Write(fd, 30e6, k) },
		func(task *Task, _ int64, _ error, k Done) { task.Close(fd, k) },
		reopen, reopened,
		func(task *Task, _ int64, _ error, k Done) {
			if off, _ := task.Seek(fd2, 0, SeekEnd); off != 0 {
				t.Errorf("size after O_TRUNC = %d, want 0", off)
			}
			k(0, nil)
		})
	eng.Run()
}

func TestSeekClampsNegative(t *testing.T) {
	eng, cl, sys := testSystem()
	var fd int
	open, opened := openStep(t, "/scratch/neg", OCreat|ORdwr, &fd)
	spawnScript(eng, sys, 0, cl.Nodes[0], open, opened,
		func(task *Task, _ int64, _ error, k Done) {
			if off, _ := task.Seek(fd, -5, SeekSet); off != 0 {
				t.Errorf("negative seek gave %d, want clamp to 0", off)
			}
			k(0, nil)
		})
	eng.Run()
}

package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
)

// files are a workload's prepared inputs inside a run directory.
type files struct {
	dir   string
	store string             // DiskStore written by fuzzygen (store and paged modes)
	pages string             // paged R-tree prefix at the served shard count
	log   string             // checkpointed base log (log mode); launches serve copies
	objs  []*fuzzyknn.Object // the log's initial objects (log mode)
}

// prepare generates the workload's inputs from the seed. It is not timed:
// setup_s starts when the server is launched on these files.
func prepare(w *Workload, seed uint64, bin, dir string) (*files, error) {
	f := &files{dir: dir}
	p := w.dataParams(seed)
	switch w.Mode {
	case "store", "paged":
		f.store = filepath.Join(dir, "objects.fzs")
		cmd := exec.Command(filepath.Join(bin, "fuzzygen"), "-out", f.store,
			"-n", strconv.Itoa(p.N), "-points", strconv.Itoa(p.PointsPerObject),
			"-space", fmt.Sprint(p.Space), "-radius", fmt.Sprint(p.Radius), "-sigma", fmt.Sprint(p.Sigma),
			"-seed", strconv.FormatUint(seed, 10))
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("fuzzygen: %v\n%s", err, out)
		}
		if w.Mode == "paged" {
			f.pages = filepath.Join(dir, fmt.Sprintf("pages-%d.fzp", w.Shards))
			if err := savePaged(f.store, f.pages, w.Shards); err != nil {
				return nil, err
			}
		}
	case "log":
		objs, err := dataset.Generate(p)
		if err != nil {
			return nil, err
		}
		f.log, f.objs = filepath.Join(dir, "base", "objects.fzl"), objs
		if err := writeLog(f.log, objs, w.Shards); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown mode %q", w.Mode)
	}
	return f, nil
}

// savePaged writes the paged R-tree files of the store at the shard count.
func savePaged(store, pages string, shards int) error {
	ix, err := fuzzyknn.OpenIndex(store, &fuzzyknn.Config{Shards: shards})
	if err != nil {
		return err
	}
	defer ix.Close()
	return ix.SavePaged(pages)
}

// writeLog loads objs into a fresh log index, checkpoints and compacts it,
// so that a server opening it loads the checkpoint and replays nothing.
func writeLog(path string, objs []*fuzzyknn.Object, shards int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ix, err := fuzzyknn.OpenLogIndex(path, 2, &fuzzyknn.Config{Shards: shards, Fsync: fuzzyknn.FsyncBatch})
	if err != nil {
		return err
	}
	if err := ix.ApplyBatch(objs, nil); err != nil {
		ix.Close()
		return err
	}
	if _, err := ix.Checkpoint(true); err != nil {
		ix.Close()
		return err
	}
	return ix.Close()
}

// freshLog copies the base log's directory to dst and returns the log path
// inside it, so every launch starts from the same checkpointed state.
func freshLog(base, dst string) (string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(filepath.Dir(base), e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return "", err
		}
	}
	return filepath.Join(dst, filepath.Base(base)), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// serverArgs are the fuzzyserve flags of the workload, minus -addr.
func serverArgs(w *Workload, f *files, logPath string) []string {
	args := []string{"-shards", strconv.Itoa(w.Shards), "-slow-query", "0"}
	switch w.Mode {
	case "store":
		args = append(args, "-store", f.store)
	case "paged":
		args = append(args, "-store", f.store, "-pagefile", f.pages, "-cache-mb", strconv.Itoa(w.CacheMB))
	case "log":
		args = append(args, "-log", logPath, "-fsync", "batch", "-checkpoint-every", strconv.Itoa(w.CheckpointEvery))
	}
	return args
}

// serverProc is a running fuzzyserve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	logOut *os.File
	exited chan struct{}
}

// startServer launches fuzzyserve and waits for its first /healthz 200.
// The returned duration runs from the launch to that answer.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logOut, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	s := &serverProc{base: "http://" + addr, logOut: logOut, exited: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(bin, "fuzzyserve"), append(args, "-addr", addr)...)
	s.cmd.Stdout, s.cmd.Stderr = logOut, logOut
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logOut.Close()
		return nil, 0, err
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			logOut.Close()
			return nil, 0, fmt.Errorf("fuzzyserve exited during start-up; log %s", logPath)
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("fuzzyserve did not answer /healthz within 60s")
		}
	}
}

// stop ends the server gracefully, killing it if it does not drain in
// time, and waits until the process has exited.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.logOut.Close()
}

// resetPeakRSS resets the server's high-water resident set size to its
// current one (clear_refs 5), so that a later peakRSSMiB covers only what
// happened after the reset. Start-up leaves a peak that depends on when
// the collector ran during the store scan: VmHWM right after start-up
// ranged over 15–45 MiB between launches on one paper_aknn store.
func (s *serverProc) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMiB reads the server's high-water resident set size (VmHWM).
func (s *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// getBody fetches url and returns the body of a 200 answer.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

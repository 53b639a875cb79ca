package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru, err
}

// hostFacts records what the figures depend on. Disk fsync latency is not
// measured: the journal workloads fsync on whatever filesystem holds the
// checkout, named here by type.
func hostFacts(journalDir string) map[string]any {
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu_model":       cpuModel(),
		"go_version":      runtime.Version(),
		"git_rev":         gitRev("."),
		"journal_fs_type": fsType(journalDir),
		"fsync_latency":   "not measured",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD by reading .git directly; a checkout without .git
// reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// rssSampler reads the resident set size every rssEvery while a window
// runs. The reported peak is the median over one-second slices of each
// slice's highest reading: a garbage-collection cycle that lands late once
// moves one slice, not the run's figure.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64 // MB, one per completed slice
}

const rssEvery = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(rssEvery)
		defer tk.Stop()
		sliceEnd := time.Now().Add(time.Second)
		peak := 0.0
		for {
			select {
			case <-s.stop:
				if peak > 0 {
					s.peaks = append(s.peaks, peak)
				}
				return
			case now := <-tk.C:
				peak = max(peak, rssMB())
				if now.After(sliceEnd) {
					s.peaks = append(s.peaks, peak)
					peak, sliceEnd = 0, now.Add(time.Second)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median per-slice peak in MB and
// the number of slices.
func (s *rssSampler) finish() (float64, int) {
	close(s.stop)
	<-s.done
	return median(s.peaks), len(s.peaks)
}

// rssMB reads the current resident set size from /proc/self/statm (0 when
// unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

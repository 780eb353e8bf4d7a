package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// rssWindow is the length of the windows peak RSS is taken over.
const rssWindow = 500 * time.Millisecond

// rssSampler records the peak RSS of one process in consecutive windows:
// at the start of each it resets the process's VmHWM to its current RSS
// (Linux clear_refs value 5), at the end it reads VmHWM. The median of the
// window peaks does not hinge on where one garbage collection happened to
// fall, as the peak over a whole run does.
type rssSampler struct {
	pid   string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startRSSSampler(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(rssWindow)
	defer t.Stop()
	for {
		if s.err = resetPeakRSS(s.pid); s.err != nil {
			return
		}
		select {
		case <-t.C:
		case <-s.stop:
			s.read()
			return
		}
		if !s.read() {
			return
		}
	}
}

func (s *rssSampler) read() bool {
	mb, err := peakRSSMB(s.pid)
	if err != nil {
		s.err = err
		return false
	}
	s.peaks = append(s.peaks, mb)
	return true
}

// finish stops sampling and returns the median window peak in MB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, fmt.Errorf("peak RSS of process %s: %w", s.pid, s.err)
	}
	return median(s.peaks), nil
}

// peakRSSMB returns the VmHWM of process pid ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS sets process pid's VmHWM back to its current RSS, so the
// next peakRSSMB reads the peak since this call.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler records this process's resident set size every few
// milliseconds, so the peak of any interval can be read afterwards. A
// per-campaign peak is steadier than the process high-water mark, which
// one unlucky garbage-collection cycle decides.
type rssSampler struct {
	mu      sync.Mutex
	at      []time.Time
	mb      []float64
	stop    chan struct{}
	stopped chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.stopped
}

func (s *rssSampler) sample() {
	mb := residentMB()
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.mb = append(s.mb, mb)
	s.mu.Unlock()
}

// peak is the largest sample taken in [from, to]; it samples once more
// first, so an interval that has just ended is covered.
func (s *rssSampler) peak(from, to time.Time) float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := 0.0
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to.Add(10*time.Millisecond)) {
			p = max(p, s.mb[i])
		}
	}
	return p
}

// windowPeaks splits [from, to] into windows of length w and returns the
// peak of each.
func (s *rssSampler) windowPeaks(from, to time.Time, w time.Duration) []float64 {
	var out []float64
	for t := from; t.Before(to); t = t.Add(w) {
		end := t.Add(w)
		if end.After(to) {
			end = to
		}
		out = append(out, s.peak(t, end))
	}
	return out
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(fields[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

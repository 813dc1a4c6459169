package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealLimit is the share of the machine's CPU time the hypervisor may
// steal during a sample before the sample counts as disturbed.
const stealLimit = 0.03

// stealMonitor samples the machine's CPU-time counters so that samples
// taken while a virtual machine's host stole CPU time — a neighbour's
// burst, not the program — can be told apart and left out of medians.
type stealMonitor struct {
	mu    sync.Mutex
	marks []stealMark
	done  chan struct{}
	wg    sync.WaitGroup
}

type stealMark struct {
	at           time.Time
	steal, total uint64
}

// startStealMonitor reads /proc/stat every period until stop. Where the
// file is unreadable it records nothing and reports nothing disturbed.
func startStealMonitor(period time.Duration) *stealMonitor {
	m := &stealMonitor{done: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) stop() {
	close(m.done)
	m.wg.Wait()
}

func (m *stealMonitor) sample() {
	steal, total, ok := readCPUStat()
	if !ok {
		return
	}
	m.mu.Lock()
	m.marks = append(m.marks, stealMark{at: time.Now(), steal: steal, total: total})
	m.mu.Unlock()
}

// readCPUStat returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat.
func readCPUStat() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stolen is the share of CPU time stolen over the smallest span of
// marks enclosing [from, to]; 0 when the marks do not enclose it.
func (m *stealMonitor) stolen(from, to time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.marks)
	i := sort.Search(n, func(k int) bool { return m.marks[k].at.After(from) }) - 1
	j := sort.Search(n, func(k int) bool { return !m.marks[k].at.Before(to) })
	if i < 0 || j >= n || m.marks[j].total == m.marks[i].total {
		return 0
	}
	return float64(m.marks[j].steal-m.marks[i].steal) / float64(m.marks[j].total-m.marks[i].total)
}

// disturbed reports whether more than stealLimit was stolen around
// [from, to].
func (m *stealMonitor) disturbed(from, to time.Time) bool {
	return m.stolen(from, to) > stealLimit
}

// timed is one measured value with the wall-clock span it covered.
type timed struct {
	v        float64
	from, to time.Time
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// quiet returns the values whose spans no steal burst disturbed, unless
// fewer than min would remain — then a burst covered the run and every
// value is kept. The number dropped is recorded in the environment line
// as steal_dropped.<name>.
func (b *bench) quiet(name string, xs []timed, min int) []float64 {
	var kept []float64
	for _, x := range xs {
		if !b.mon.disturbed(x.from, x.to) {
			kept = append(kept, x.v)
		}
	}
	if len(kept) < min {
		kept = values(xs)
	}
	b.mu.Lock()
	b.env["steal_dropped."+name] = len(xs) - len(kept)
	b.mu.Unlock()
	return kept
}

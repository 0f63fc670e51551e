package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rank is the nearest-rank index of the p-quantile among n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-quantile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// beyond is how many of n samples lie above the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// gateable reports whether the p-quantile of n samples has the ten samples
// beyond it that make it worth gating.
func gateable(n int, p float64) bool { return beyond(n, p) >= 10 }

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, and 0 when b is 0: a layer that saw no work did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM), or 0 where
// /proc does not tell.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// loadAvg1 is the 1-minute load average.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// cpuJiffies reads the machine's busy and total CPU time from /proc/stat.
func cpuJiffies() (busy, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i != 3 && i != 4 { // idle, iowait
			busy += v
		}
	}
	return busy, total
}

// busyCores samples how many cores' worth of CPU the whole machine is using
// right now, over d. The 1-minute load average cannot tell a neighbour from
// the previous workload of this same benchmark; this can.
func busyCores(d time.Duration) float64 {
	b0, t0 := cpuJiffies()
	time.Sleep(d)
	b1, t1 := cpuJiffies()
	return ratio(b1-b0, t1-t0) * float64(runtime.NumCPU())
}

// runtimeSample is a point reading of the Go runtime's own counters.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcPauseNs                float64
	gcCPU, totalCPU          float64
	heapLive                 float64
}

func readRuntime() runtimeSample {
	names := []string{
		"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
		"/gc/heap/live:bytes",
	}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		allocBytes: val(0), allocObjects: val(1),
		gcCPU: val(2), totalCPU: val(3), heapLive: val(4),
		gcPauseNs: float64(ms.PauseTotalNs),
	}
}

// goroutineWatch samples the goroutine count until stopped and keeps the peak.
type goroutineWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{}), peak: runtime.NumGoroutine()}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > w.peak {
					w.peak = n
				}
			}
		}
	}()
	return w
}

// Peak stops the watch and returns the highest count seen.
func (w *goroutineWatch) Peak() int {
	close(w.stop)
	w.done.Wait()
	return w.peak
}

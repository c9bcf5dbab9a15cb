package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mib = 1 << 20

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time across all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / mib, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostTicks reads the host's aggregate CPU tick counters from /proc/stat:
// the ticks stolen by the hypervisor and the total across all states.
func hostTicks() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat header %q", sc.Text())
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of the total.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// median of xs (the mean of the middle two for an even count); xs is not
// modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics; xs is not
// modified. Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// geomean of positive values; zero for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var refSink float64

// refKernelMS times a fixed single-threaded dense kernel that no change to
// the repository touches. Its median tracks the host's speed, so a run
// that is slow because the host was slow can be told apart from slow code.
func refKernelMS() float64 {
	const n, reps = 128, 15
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)*0.1, float64(i%5)*0.2
	}
	ds := make([]float64, reps)
	for r := range ds {
		clear(c)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			out := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j, bkj := range b[k*n : (k+1)*n] {
					out[j] += aik * bkj
				}
			}
		}
		ds[r] = ms(time.Since(t0))
	}
	refSink += c[n*n-1]
	return median(ds)
}

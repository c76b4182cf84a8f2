package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probe is a snapshot of the process and host counters a measured
// window is judged by; two probes bracket a window.
type probe struct {
	at              time.Time
	cpu             time.Duration // process user+sys (getrusage)
	allocBytes      uint64        // cumulative heap allocation
	gcCPU, totalCPU float64       // runtime/metrics CPU seconds
	steal, hostAll  uint64        // /proc/stat jiffies
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeProbe() probe {
	p := probe{at: time.Now(), cpu: processCPU()}
	metrics.Read(runtimeSamples)
	p.allocBytes = runtimeSamples[0].Value.Uint64()
	p.gcCPU = runtimeSamples[1].Value.Float64()
	p.totalCPU = runtimeSamples[2].Value.Float64()
	p.steal, p.hostAll = hostJiffies()
	return p
}

// processCPU is the process's user+sys CPU time so far. The kernel
// accounts steal apart from it, so it does not drift with host load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostJiffies reads the aggregate cpu line of /proc/stat: the steal
// column and the sum of all columns. Hosts without /proc report 0/0.
func hostJiffies() (steal, all uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest columns are already counted in user/nice
			all += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

// span is the delta between two probes.
type span struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcShare    float64
	stealShare float64
}

func between(a, b probe) span {
	return span{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcShare:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		stealShare: ratio(float64(b.steal-a.steal), float64(b.hostAll-a.hostAll)),
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// median of a set of durations (the input is sorted in place).
func median(ds []time.Duration) time.Duration {
	sortDurations(ds)
	return quantile(ds, 0.5)
}

// timeSetups runs setup n times, each from a freshly collected heap,
// closing every stack but the last, which it returns with the CPU time
// each set-up took. Set-up is single-threaded work (parsing, decoding,
// indexing), so its CPU time is its wall time minus what the host
// stole, and it does not drift with host load.
func timeSetups[T any](n int, setup func() (T, error), close func(T)) ([]time.Duration, T, error) {
	var times []time.Duration
	var last T
	for i := 0; i < n; i++ {
		runtime.GC()
		c0 := processCPU()
		st, err := setup()
		if err != nil {
			if i > 0 {
				close(last)
			}
			return nil, last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, processCPU()-c0)
		if i > 0 {
			close(last)
		}
		last = st
	}
	return times, last, nil
}

// splitTail splits a window into the consecutive parts its tail is
// taken over: three when each third still holds at least ten samples
// beyond quantile q, else one. units are the indivisible stretches of
// the window (whole passes, or single requests); the parts are cut at
// unit boundaries.
func splitTail(units [][]time.Duration, q float64) [][]time.Duration {
	const parts = 3
	per := len(units) / parts
	smallest := 0
	for _, u := range units[:per] {
		smallest += len(u)
	}
	if per == 0 || float64(smallest)*(1-q) < 10 {
		return [][]time.Duration{concat(units)}
	}
	out := make([][]time.Duration, parts)
	for i := range out {
		out[i] = concat(units[i*len(units)/parts : (i+1)*len(units)/parts])
	}
	return out
}

func concat(units [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// endToEnd derives the gated end-to-end metrics of one window: those
// that do not drift with the CPU time the host steals.
func endToEnd(setups []time.Duration, ops, queries, attempted, failed int, win span, memBytes int64) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(setups).Seconds(),
		"cpu_ms_per_op":  ratio(ms(win.cpu), float64(ops)),
		"queries_per_op": ratio(float64(queries), float64(ops)),
		"mem_mb":         float64(memBytes) / (1 << 20),
		"ok_share":       1 - ratio(float64(failed), float64(attempted)),
	}
}

// wallMetrics derives the wall-clock metrics of one window. parts are
// its latencies in consecutive parts (splitTail): p50 is taken over all
// of them, the tail quantile in each part and the median over parts
// reported, so one cluster of host stalls moves one part, not the
// reading.
func wallMetrics(parts [][]time.Duration, ops int, win span, tail float64) map[string]float64 {
	all := concat(parts)
	sortDurations(all)
	var tails []time.Duration
	for _, p := range parts {
		p = append([]time.Duration(nil), p...)
		sortDurations(p)
		tails = append(tails, quantile(p, tail))
	}
	return map[string]float64{
		"ops_per_s": ratio(float64(ops), win.wall.Seconds()),
		"p50_ms":    ms(quantile(all, 0.5)),
		"tail_ms":   ms(median(tails)),
	}
}

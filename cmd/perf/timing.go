package main

// timing.go is the benchmark's one timing helper: a stopwatch that keeps
// every iteration's sample, a warm-up discard, medians, the tail rule, and
// the quartile spread the driver and `perf compare` judge steadiness by.

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// warmup is how many leading iterations every workload discards: caches
// fill, lazily built state settles, and the heap reaches its working size.
const warmup = 3

// stopwatch times one repeated operation, one sample per start/stop pair.
// Every sample is kept twice: as measured, and normalised to the reference
// box's speed by a calibration kernel run right after it (see calibrate).
type stopwatch struct {
	t0     time.Time
	a0     allocCounter
	ms     []float64 // wall time, as measured
	norm   []float64 // wall time at the reference box's speed (atReference)
	kernel []float64 // the calibration kernel's time just after the sample
	kb     []float64 // heap KB allocated between start and stop
}

// start reads the heap counters (a stop-the-world of microseconds) before
// the clock, stop reads them after it, so neither read is timed.
func (s *stopwatch) start() {
	s.a0 = readAllocs()
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	ms := float64(time.Since(s.t0).Nanoseconds()) / 1e6
	s.kb = append(s.kb, float64(s.a0.since().bytes)/1024)
	kernel := calibrate()
	s.ms = append(s.ms, ms)
	s.norm = append(s.norm, atReference(ms, kernel))
	s.kernel = append(s.kernel, kernel)
}

// sum appends a sample that is the sum of sample i of each part.
func (s *stopwatch) sum(i int, parts ...*stopwatch) {
	var ms, norm, kernel, kb float64
	for _, p := range parts {
		ms += p.ms[i]
		norm += p.norm[i]
		kernel += p.kernel[i] / float64(len(parts))
		kb += p.kb[i]
	}
	s.ms, s.norm, s.kernel, s.kb = append(s.ms, ms), append(s.norm, norm), append(s.kernel, kernel), append(s.kb, kb)
}

// The sandboxes this benchmark runs in share their cores and caches with
// neighbours: the same code runs 1.3-1.7x slower for seconds or minutes at a
// time, whichever estimator summarises the samples. What stays steady is a
// sample's time relative to a fixed kernel run in the same moment, so the
// gated times are reported at the reference box's speed: measured time x
// (calNominalMs / the kernel's time)^calExponent. The kernel does what the
// workloads' hot paths do — cache-missing loads over a 16 MB table, then
// updates of a 64k-entry Go map (the engine's policy tables are Go maps) —
// half its nominal time each; of the eight kernels and their pairs tried
// (README), this pair tracked every workload best.
//
// What the kernel costs the measurement, so that nobody has to find out:
// it runs after every iteration, outside the timed region, so every timed
// iteration starts with the kernel's lines in the caches and not its own
// (a cold L2/L3 — on both sides of any comparison). Its table is mapped
// outside the Go heap and so does not move the collector's pacing; its map
// stays a Go map on purpose and adds 2.3 MB (HeapAlloc, measured) to the
// live heap of every workload's process.
const (
	calNominalMs = 4.0 // the kernel's time on the quiet reference box
	// calExponent is how much of the kernel's slow-down the workloads share:
	// over 140 runs spanning kernel times of 3.1-7.4 ms, a workload's time
	// grew as the kernel's to the power 0.77 (0.49 on cluster_epoch, which
	// waits on sockets, to 1.0 on node_edge). Dividing by the whole ratio
	// over-corrects: between two ten-seed sets the medians then drifted by
	// up to 17 %, with 0.8 by up to 8 % (README, "Steadiness").
	calExponent = 0.8
	calLoads    = 150_000
	calMapOps   = 40_000
	calTableLen = 4 << 20 // uint32s
	calMapKeys  = 1 << 16
)

var (
	calTable []uint32
	calMap   map[uint32]float64
	calSink  uint64
)

// atReference scales a time measured beside a kernel run of kernelMs to the
// reference box's speed.
func atReference(ms, kernelMs float64) float64 {
	return ms * math.Pow(calNominalMs/kernelMs, calExponent)
}

// calibrate runs the kernel once and returns its time in ms.
func calibrate() float64 {
	if calTable == nil {
		calTable = offHeapUint32s(calTableLen)
		for i := range calTable {
			calTable[i] = uint32(i) * 2654435761
		}
		calMap = make(map[uint32]float64, calMapKeys)
		for k := uint32(0); k < calMapKeys; k++ {
			calMap[k] = 0
		}
	}
	t0 := time.Now()
	idx := uint32(12345)
	var sum uint32
	for i := 0; i < calLoads; i++ {
		idx = idx*1664525 + 1013904223
		sum += calTable[idx&(calTableLen-1)]
	}
	for i := 0; i < calMapOps; i++ {
		idx = idx*1664525 + 1013904223
		calMap[idx&(calMapKeys-1)]++
	}
	calSink ^= uint64(sum)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// midmean is the interquartile mean: the mean of the samples between the
// quartiles. It ignores both tails like the median but averages half the
// samples instead of reading one, which made it the steadiest run-to-run
// summary of the normalised samples (README). Below four samples it is the
// median.
func midmean(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return median(xs)
	}
	return mean(sorted(xs)[n/4 : n-n/4])
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// alternate splits samples by iteration parity: in a traced run the odd
// iterations carry spans and the even ones do not, so both arms see the
// same machine conditions.
func alternate(ms []float64) (even, odd []float64) {
	for i, v := range ms {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return even, odd
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and that percentile's value. ok is false below eleven samples:
// a tail read off fewer is one outlier, not a percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - 11 // ten samples lie strictly beyond index k
	return s[k], 100 * float64(k+1) / float64(n), true
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), which is what the benchmark driver computes spreads
// with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run steadiness figure. NaN below two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// allocCounter reads the heap's cumulative allocation figures, so a probe
// can report bytes and objects allocated by the calls it brackets.
type allocCounter struct{ bytes, objects uint64 }

func readAllocs() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{bytes: m.TotalAlloc, objects: m.Mallocs}
}

func (a allocCounter) since() allocCounter {
	b := readAllocs()
	return allocCounter{bytes: b.bytes - a.bytes, objects: b.objects - a.objects}
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// envBlock records where a result was measured.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Network    string `json:"network"`
}

// maxProcs caps the scheduler at two cores, the box the sizes were pinned
// on; the load generators never keep more goroutines or connections in
// flight than that.
func maxProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func readEnv() envBlock {
	e := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Network: "host loopback (127.0.0.1), no real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		e.Commit += dirty
	}
	return e
}

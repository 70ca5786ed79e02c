package main

import (
	"compress/flate"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The reference host's speed changes by more than a factor of two
// over minutes, so a raw host time says as much about the host as about
// the program. The benchmark therefore runs a fixed probe of its own
// between the program's units and reports timings in reference
// seconds: host seconds times refNominal over the run's median probe
// time. A change to the program moves its timings and not the probe; a
// slower host moves both, and the ratio stays. The median over all of a
// run's probes is the speed estimate: one probe varies by about a fifth
// from the next, more than the host's speed moves within a run.

// refNominal is the probe's median wall time on two goroutines on the
// reference host (2 vCPU Xeon, go1.24) when it was set, in seconds. It
// fixes the scale of reference seconds: on that host at that time they
// equal host seconds. Changing it rescales every converted metric.
const refNominal = 0.011

const (
	refSlices     = 5       // slices per probe; the probe is their median
	refSets       = 1 << 11 // cache-model sets per goroutine: 144 KB, past L1
	refAccesses   = 1 << 16 // cache-model accesses per goroutine and slice
	refTextBytes  = 1 << 15 // text compressed per goroutine and slice
	refMapKeys    = 1 << 14 // map inserts per goroutine and slice, each looked up twice
	refTableWords = 1 << 18 // 2 MB random-access table per goroutine: past L1
	refUpdates    = 1 << 18 // random read-modify-writes per goroutine and slice
)

// hostSpeed runs the reference probe: a fixed mix of the kinds of work
// the program does, on as many goroutines as the workload keeps busy.
// A shared host slows kinds of work unequally: consecutive trains took
// from 1.7 to 2.9 s while a SHA-256 loop and random updates of a 64 MB
// table stayed flat. So the probe is code like the program's — a
// set-associative cache model like the simulator's, DEFLATE of
// trace-like text like the parser, map inserts and lookups, random
// updates of a table past L1 — and not one kernel. Its inputs are fixed
// and it never calls the program. It starts on a collected heap, so the
// program's garbage is not collected on its time, and allocates next to
// nothing once built: its memory, about 3.5 MB per goroutine, is the
// same throughout a run and adds a constant to peak_rss_mb.
type hostSpeed struct {
	goroutines int
	text       []byte
	sets       [][]refSet
	tables     [][]uint64
	maps       []map[uint64]uint64
	zws        []*flate.Writer
	probes     []float64 // every probe of the run, host seconds
}

func newHostSpeed(goroutines int) *hostSpeed {
	h := &hostSpeed{goroutines: goroutines, text: refText(refTextBytes)}
	for i := 0; i < goroutines; i++ {
		t := make([]uint64, refTableWords)
		for j := range t {
			t[j] = uint64(j)
		}
		h.tables = append(h.tables, t)
		h.sets = append(h.sets, make([]refSet, refSets))
		h.maps = append(h.maps, make(map[uint64]uint64, refMapKeys))
		zw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
		h.zws = append(h.zws, zw)
	}
	// The first run faults the probe's memory in and reads about twice
	// the steady time; it is not kept.
	h.probe()
	h.probes = nil
	return h
}

// refText is fixed text shaped like a trace file: short tokens from a
// small vocabulary with hex addresses between them.
func refText(n int) []byte {
	words := []string{"load ", "store ", "add ", "branch ", "T0 ", "T1 ", "T2 ", "T3 ", "\n"}
	var out []byte
	x := uint64(1)
	for len(out) < n {
		x = x*6364136223846793005 + 1442695040888963407
		out = append(out, words[(x>>33)%uint64(len(words))]...)
		if x>>62 == 0 {
			out = strconv.AppendUint(append(out, "0x"...), (x>>20)&0xffff0, 16)
			out = append(out, ' ')
		}
	}
	return out[:n]
}

// probe runs the reference work in refSlices slices, each on every
// goroutine at once, and returns the median slice's wall seconds. A
// hiccup of the host shorter than a slice or two, which a unit of the
// program hardly feels, moves the median not at all; a slowdown that
// lasts through the probe moves it fully.
func (h *hostSpeed) probe() float64 {
	runtime.GC()
	var slices []float64
	for range refSlices {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < h.goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refWork(h, g)
			}()
		}
		wg.Wait()
		slices = append(slices, time.Since(t0).Seconds())
	}
	d := median(slices)
	h.probes = append(h.probes, d)
	return d
}

// refWork is one goroutine's share of the probe.
func refWork(h *hostSpeed, g int) {
	seed := uint64(g) + 1
	refCacheModel(h.sets[g], refAccesses, seed)

	zw := h.zws[g]
	zw.Reset(io.Discard)
	zw.Write(h.text)
	zw.Close()

	m := h.maps[g]
	clear(m)
	for i := uint64(0); i < refMapKeys; i++ {
		m[i*0x9e3779b97f4a7c15^seed] = i
	}
	var sum uint64
	for i := uint64(0); i < 2*refMapKeys; i++ {
		sum += m[(i%refMapKeys)*0x9e3779b97f4a7c15^seed]
	}

	t := h.tables[g]
	x := seed
	mask := uint64(len(t) - 1)
	for i := 0; i < refUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		t[(x>>29)&mask] += x + sum
	}
}

// refSet is one set of an 8-way cache model with age-based LRU.
type refSet struct {
	tags [8]uint64
	age  [8]uint8
}

// refCacheModel streams addresses, a quarter of them random jumps and
// the rest sequential lines, through an 8-way LRU cache model, and
// returns the hits.
func refCacheModel(sets []refSet, n int, seed uint64) int {
	hits := 0
	mask := uint64(len(sets) - 1)
	x, addr := seed, uint64(0)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>62 == 0 {
			addr = (x >> 20) & (1<<26 - 1)
		} else {
			addr += 64
		}
		line := addr >> 6
		s := &sets[line&mask]
		tag := line >> 11
		way := -1
		for w := range s.tags {
			if s.tags[w] == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w := range s.age {
				if s.age[w] > s.age[way] {
					way = w
				}
			}
			s.tags[way] = tag
		}
		for w := range s.age {
			if s.age[w] < 255 {
				s.age[w]++
			}
		}
		s.age[way] = 0
	}
	return hits
}

// probesBetween is how many probes run between two units of a
// workload: enough that a run of ten units has tens of probes, whose
// median does not hang on one.
const probesBetween = 3

// between probes the host between two units of a workload.
func (h *hostSpeed) between() {
	for range probesBetween {
		h.probe()
	}
}

// factor converts host seconds into reference seconds at the host's
// speed so far in the run: refNominal over the median probe.
func (h *hostSpeed) factor() float64 { return refNominal / median(h.probes) }

// refMS is the median probe time in host milliseconds: how fast the
// host ran during the run.
func (h *hostSpeed) refMS() float64 { return median(h.probes) * 1000 }

// scaled returns xs times k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// Classify timings on train-quick and trace-replay are a few
// microseconds a pass, and the reference host switches between a fast
// and a slow state every few milliseconds, which moves them by up to
// 1.9x. A probe of tens of milliseconds cannot follow that. So each
// timed pass over the check samples is followed at once by a pass of
// pairedProbe: work of the same shape as a tree classifier's,
// string-keyed map lookups into a freshly allocated feature vector and
// a walk down a pointer tree, never the program's code. A pass in
// reference seconds is its host time over its pair's, times
// pairNominal. On 16 copies of the golden detector over five rounds,
// host time per call ranged from 133 to 255 ns and the ratio from 0.69
// to 0.76.

// pairNominal is a round figure for pairedProbe's wall time on the
// reference host, in seconds: it ran from 2.2 to 4.3 µs between the
// host's fast and slow states. Like refNominal it only sets the scale.
const pairNominal = 3.6e-6

// pairReps is how many feature vectors one pairedProbe pass builds and
// classifies: as many as there are check samples.
const pairReps = 12

// pairedProbe is the fixed classifier-shaped work.
type pairedProbe struct {
	names  []string
	sample map[string]float64
	root   *refNode
	sink   []float64
}

// refNode is a node of pairedProbe's fixed decision tree.
type refNode struct {
	left, right *refNode
	attr        int
	cut         float64
	leaf        int
}

func newPairedProbe() *pairedProbe {
	p := &pairedProbe{sample: map[string]float64{}}
	for i := 0; i < 17; i++ {
		n := "EVENT_" + string(rune('A'+i)) + ".COUNT_" + string(rune('a'+i%5))
		p.names = append(p.names, n)
		p.sample[n] = float64(i*37%17) / 17
	}
	var build func(depth int, x uint64) *refNode
	build = func(depth int, x uint64) *refNode {
		x = x*6364136223846793005 + 1442695040888963407
		if depth == 0 {
			return &refNode{leaf: int(x >> 62)}
		}
		return &refNode{attr: int(x>>33) % len(p.names), cut: float64(x>>40) / (1 << 24),
			left: build(depth-1, x), right: build(depth-1, x^0x9e37)}
	}
	p.root = build(7, 1)
	return p
}

// run builds and classifies pairReps feature vectors and returns the
// sum of their leaves.
func (p *pairedProbe) run() int {
	sum := 0
	for r := 0; r < pairReps; r++ {
		fv := make([]float64, len(p.names))
		for i, n := range p.names {
			fv[i] = p.sample[n] + float64(r)*1e-3
		}
		nd := p.root
		for nd.left != nil {
			if fv[nd.attr] < nd.cut {
				nd = nd.left
			} else {
				nd = nd.right
			}
		}
		sum += nd.leaf
		p.sink = fv
	}
	return sum
}

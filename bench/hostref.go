package bench

import (
	"runtime"
	"time"
)

// Host-speed normalization. On a shared machine the CPU speed a process
// gets drifts by tens of percent over minutes: two sets of fig3 runs of
// one commit, ten minutes apart, had medians 35% apart on the 2-vCPU
// sandbox this benchmark was calibrated on. So the simulation workloads
// also time a fixed reference kernel — code of this file only, never of
// the module under test — before their first sample and after every
// sample, and report their host-time end-to-end metrics (setup_s,
// latency_ms, throughput) at the reference speed: multiplied (or, for
// throughput, divided) by refNominalMs / the first quartile of the
// kernel's times in the run. In two sets of ten seeds it cut the spread (interquartile range
// over median) of interleave's latency from 18% and 8% to 8% and 6%,
// loss-coverage's from 16% and 12% to 13% and 8%, and fig3's from 8% and
// 5% to 6% and 4%. The unscaled values stay in the full report as
// raw.<metric>, beside host.ref_ms.
//
// serve-mix reports unscaled times: its HTTP-bound request path did not
// follow the kernel (its median moved 1.4% between the two sets whose fig3
// medians moved 35%), and scaling it by the kernel widened its spread.

// refNominalMs is the reference kernel's time, in ms, on the machine the
// scaled metrics are expressed for — close to its first quartile on the
// calibration sandbox (a 2-vCPU Xeon VM), so scaled values there read
// close to raw ones.
const refNominalMs = 5.0

// refEvent is one event of the reference kernel's queue.
type refEvent struct {
	at, key, a, b uint64
}

var refSink uint64

// refKernel is a small discrete-event loop with the simulator's kinds of
// work: a binary heap of value-type events, table lookups, map updates
// and short-lived allocations. It runs a fixed number of events.
func refKernel() {
	const events = 1 << 16
	table := make([]uint64, 1<<14)
	m := make(map[uint64]uint64, 1<<10)
	heap := make([]refEvent, 0, 1<<10)
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 256; i++ {
		v := next()
		push(refEvent{at: v % 1024, key: v})
	}
	var garbage [][]byte
	for i := 0; i < events; i++ {
		e := pop()
		v := next()
		slot := (e.key ^ v) % uint64(len(table))
		table[slot] += e.at
		if v%4 == 0 {
			m[v%2048] += table[slot]
		}
		if v%16 == 0 {
			garbage = append(garbage, make([]byte, 64+v%192))
			if len(garbage) > 64 {
				garbage = garbage[:0]
			}
		}
		push(refEvent{at: e.at + 1 + v%64, key: e.key + v, a: e.a + 1, b: table[slot]})
	}
	refSink += table[1] + m[1] + uint64(len(garbage))
}

// timeRef times reps runs of the reference kernel into the phase's
// reference samples, starting from a collected heap so that no garbage of
// the work before it is swept on its time.
func (r *run) timeRef(reps int) {
	runtime.GC()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		refKernel()
		r.refs = append(r.refs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

// normalize rescales the phase's host-time end-to-end metrics to the
// reference speed, keeping the unscaled ones as raw.<metric>. A workload
// that timed no reference kernel keeps its metrics as measured.
func (r *run) normalize() {
	if len(r.refs) == 0 {
		return
	}
	r.timeRef(5)
	r.samples("host.ref_ms", r.refs)
	// The first quartile: a reference timing can only be slowed by a
	// transient (a GC cycle, a burst on the other vCPU), and a low quantile
	// tracks the machine's speed with fewer of them.
	k := refNominalMs / quantile(sorted(r.refs), 0.25)
	for name, scale := range map[string]float64{"setup_s": k, "latency_ms": k, "throughput": 1 / k} {
		m := r.metrics[name]
		if m == nil {
			continue
		}
		raw := *m
		raw.Samples = append([]float64(nil), m.Samples...)
		r.metrics["raw."+name] = &raw
		m.Value *= scale
		m.P25 *= scale
		m.P75 *= scale
		m.Tail *= scale
		for i := range m.Samples {
			m.Samples[i] *= scale
		}
	}
	r.refs = nil
}

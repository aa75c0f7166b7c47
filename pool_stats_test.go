package repro

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/msg"
)

// TestPoolStatsCountEveryMessage: msg.PoolStats accounts for every message
// a run, a model-checking exploration and a coverage campaign build, by
// the time each returns. Each network counts its messages in its own
// freelist and publishes the counts when an engine run ends, so a count
// left unpublished, or published twice, shows here. With pooling off,
// every message is a fresh allocation, which the allocation profiler
// counts independently of the pool: its count of Messages allocated in
// package msg must equal both the gets and the misses PoolStats reports.
// With pooling on, the same deterministic work must report the same gets,
// and no more misses than gets.
func TestPoolStatsCountEveryMessage(t *testing.T) {
	if !msg.PoolingEnabled() {
		t.Skip("pooling disabled via REPRO_NOPOOL")
	}
	cfg := QuickConfig()
	cfg.OpsPerCore = 20
	cases := []struct {
		name string
		run  func() error
	}{
		{"run", func() error {
			c := cfg
			c.FaultRatePerMillion = 20000
			_, err := Run(c, "uniform")
			return err
		}},
		{"interleave", func() error {
			c := cfg
			c.OpsPerCore = 1
			_, err := Interleave(c, "uniform", InterleaveOptions{FaultBudget: 1})
			return err
		}},
		{"coverage", func() error {
			_, err := Coverage(cfg, "uniform", CoverageOptions{MaxSlotsPerType: 2})
			return err
		}},
	}
	defer msg.SetPooling(true)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	for _, c := range cases {
		delta := func() (gets, news, allocated uint64) {
			runtime.MemProfileRate = 1
			gets0, news0 := msg.PoolStats()
			alloc0 := messagesAllocated()
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			gets1, news1 := msg.PoolStats()
			return gets1 - gets0, news1 - news0, messagesAllocated() - alloc0
		}
		msg.SetPooling(false)
		offGets, offNews, allocated := delta()
		msg.SetPooling(true)
		onGets, onNews, _ := delta()
		t.Logf("%s: %d messages; pooling on: %d misses", c.name, offGets, onNews)
		if offGets == 0 || offNews != offGets || allocated != offGets {
			t.Errorf("%s, pooling off: PoolStats counted %d gets and %d misses, the profiler %d Message allocations",
				c.name, offGets, offNews, allocated)
		}
		if onGets != offGets || onNews > onGets {
			t.Errorf("%s, pooling on: PoolStats counted %d gets and %d misses, want %d gets",
				c.name, onGets, onNews, offGets)
		}
	}
}

// messagesAllocated returns how many objects msg.Pool.Get and the shared
// pool behind it have allocated so far, by the allocation profile: every
// one is a Message. The profile is published by garbage collections, so
// it forces two.
func messagesAllocated() uint64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	var total uint64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "repro/internal/msg.(*Pool).Get" || f.Function == "repro/internal/msg.shared" {
				total += uint64(r.AllocObjects)
				break
			}
			if !more || !strings.HasPrefix(f.Function, "runtime.") {
				break
			}
		}
	}
	return total
}

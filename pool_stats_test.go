package repro

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/msg"
)

// poolStatsCaseEnv names the one case of TestPoolStatsCountEveryMessage a
// re-executed test binary measures (see the test).
const poolStatsCaseEnv = "REPRO_POOLSTATS_CASE"

// poolStatsCases are the measured work of TestPoolStatsCountEveryMessage:
// a faulty run, a model-checking exploration, which forks successor
// states from snapshots, and a coverage campaign.
var poolStatsCases = []struct {
	name string
	run  func(cfg Config) error
}{
	{"run", func(c Config) error {
		c.FaultRatePerMillion = 20000
		_, err := Run(c, "uniform")
		return err
	}},
	{"interleave", func(c Config) error {
		c.OpsPerCore = 1
		_, err := Interleave(c, "uniform", InterleaveOptions{FaultBudget: 1})
		return err
	}},
	{"coverage", func(c Config) error {
		_, err := Coverage(c, "uniform", CoverageOptions{MaxSlotsPerType: 2})
		return err
	}},
}

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
//
// The allocation profile is process-wide, so a message another test's
// leftover goroutine allocates while a case runs would count too. Each
// case therefore runs alone, in the test binary re-executed with
// poolStatsCaseEnv naming it.
func TestPoolStatsCountEveryMessage(t *testing.T) {
	if !msg.PoolingEnabled() {
		t.Skip("pooling disabled via REPRO_NOPOOL")
	}
	name := os.Getenv(poolStatsCaseEnv)
	for _, c := range poolStatsCases {
		if name == c.name {
			measurePoolStats(t, c.name, c.run)
			return
		}
	}
	if name != "" {
		t.Fatalf("%s=%q names no case", poolStatsCaseEnv, name)
	}
	for _, c := range poolStatsCases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestPoolStatsCountEveryMessage$", "-test.v")
			cmd.Env = append(os.Environ(), poolStatsCaseEnv+"="+c.name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, line := range strings.Split(string(out), "\n") {
				if _, logged, ok := strings.Cut(line, "pool_stats_test.go:"); ok {
					_, logged, _ = strings.Cut(logged, ": ")
					t.Log(logged)
				}
			}
		})
	}
}

// measurePoolStats runs one case with pooling off and then on and checks
// its counts.
func measurePoolStats(t *testing.T, name string, run func(Config) error) {
	cfg := QuickConfig()
	cfg.OpsPerCore = 20
	defer msg.SetPooling(true)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	delta := func() (gets, news, allocated uint64) {
		runtime.MemProfileRate = 1
		gets0, news0 := msg.PoolStats()
		alloc0 := messagesAllocated()
		if err := run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gets1, news1 := msg.PoolStats()
		return gets1 - gets0, news1 - news0, messagesAllocated() - alloc0
	}
	msg.SetPooling(false)
	offGets, offNews, allocated := delta()
	msg.SetPooling(true)
	onGets, onNews, _ := delta()
	t.Logf("%s: %d messages; pooling on: %d misses", name, offGets, onNews)
	if offGets == 0 || offNews != offGets || allocated != offGets {
		t.Errorf("%s, pooling off: PoolStats counted %d gets and %d misses, the profiler %d Message allocations",
			name, offGets, offNews, allocated)
	}
	if onGets != offGets || onNews > onGets {
		t.Errorf("%s, pooling on: PoolStats counted %d gets and %d misses, want %d gets",
			name, onGets, onNews, offGets)
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

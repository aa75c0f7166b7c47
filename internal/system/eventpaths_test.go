package system

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// The runs TestEventPathsGolden pins reach the controllers' deferred-work
// paths, which ordinary one-access-at-a-time workloads never do: accesses
// that wait for a miss on their line, retries when every MSHR is busy or
// every L1 way of a set is pinned, L2 evictions that wait for an external
// block to clear or for an eviction already under way, and continuations a
// directory reconstruction reschedules after a tile death.

// burstCore issues bursts of concurrent accesses on one L1 port: every
// access of a burst is issued at once, and the next burst starts a cycle
// after the last one completes. Accesses of one burst may share a line
// (they wait for its miss) or fill the MSHRs (they retry).
type burstCore struct {
	s      *System
	id     int
	rng    *sim.RNG
	lines  int
	burst  int
	rounds int

	pending, completed int
	seq                uint64
	cb                 func(proto.AccessResult)
}

func newBurstCore(s *System, id, lines, burst, rounds int, seed uint64) *burstCore {
	c := &burstCore{s: s, id: id, rng: sim.NewRNG(seed + uint64(id)), lines: lines, burst: burst, rounds: rounds}
	c.cb = func(proto.AccessResult) {
		c.completed++
		if c.pending--; c.pending == 0 && c.rounds > 0 {
			s.Engine().ScheduleCall(1, burstNext, c, 0)
		}
	}
	return c
}

func burstNext(arg any, _ uint64) { arg.(*burstCore).issue() }

func (c *burstCore) issue() {
	port := c.s.Ports()[c.id]
	c.rounds--
	c.pending = c.burst
	for i := 0; i < c.burst; i++ {
		addr := msg.Addr(c.rng.Intn(c.lines) * c.s.cfg.Params.LineSize)
		if c.rng.Intn(2) == 0 {
			c.seq++
			port.Write(addr, uint64(c.id+1)<<40|c.seq, c.cb)
		} else {
			port.Read(addr, c.cb)
		}
	}
}

// eventPathCase is one pinned run: a configuration and either a workload
// run through the cores (s.Run) or, when burst is set, burstCores on every
// port run until the engine drains.
type eventPathCase struct {
	name     string
	cfg      func() Config
	workload workload.Workload
	burst    int
}

// burstConfig: a 2x2 system with 1-way 1KB L1s and two MSHRs per L1, so
// bursts of four accesses over 48 lines keep the MSHRs full and the L1
// ways pinned.
func burstConfig(p Protocol) Config {
	cfg := smallConfig(p)
	cfg.Params.L1Size = 1024
	cfg.Params.L1Ways = 1
	cfg.Params.MSHRs = 2
	return cfg
}

// tinyL2Config: 1KB 2-way L2 banks, so L2 evictions overlap with fetches,
// with each other and with the external blocks of lines fetched from
// memory.
func tinyL2Config(p Protocol) Config {
	cfg := smallConfig(p)
	cfg.Params.L2Size = 1024
	cfg.Params.L2Ways = 2
	return cfg
}

func withLoss(cfg Config, perMillion int, seed uint64) Config {
	cfg.Injector = fault.NewRate(perMillion, seed)
	return cfg
}

func eventPathCases() []eventPathCase {
	var cases []eventPathCase
	for _, p := range []Protocol{DirCMP, FtDirCMP, TokenCMP, FtTokenCMP} {
		p := p
		cases = append(cases, eventPathCase{
			name: "burst/" + p.String(), burst: 4,
			cfg: func() Config { return burstConfig(p) },
		})
	}
	for _, p := range []Protocol{FtDirCMP, FtTokenCMP} {
		p := p
		cases = append(cases, eventPathCase{
			name: "burst-loss/" + p.String(), burst: 4,
			cfg: func() Config { return withLoss(burstConfig(p), 5000, 11) },
		})
	}
	// TokenCMP recovers only from lost transient requests (its retry timer
	// re-broadcasts them), so its lossy run drops those alone.
	cases = append(cases, eventPathCase{
		name: "burst-request-loss/TokenCMP", burst: 4,
		cfg: func() Config {
			cfg := burstConfig(TokenCMP)
			cfg.Injector = fault.NewChain(fault.NewNthOfType(msg.TrGetX, 3), fault.NewNthOfType(msg.TrGetS, 5),
				fault.NewNthOfType(msg.TrGetX, 50), fault.NewNthOfType(msg.TrGetS, 120))
			return cfg
		},
	})
	// FtTokenCMP under loss through the cores: persistent requests,
	// token recreation and the backup handshake arm the home's timers.
	cases = append(cases, eventPathCase{
		name: "uniform-loss/FtTokenCMP", workload: workload.Uniform(64, 0.5),
		cfg: func() Config { return withLoss(smallConfig(FtTokenCMP), 10000, 9) },
	})
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		p := p
		cases = append(cases, eventPathCase{
			name: "tiny-l2/" + p.String(), workload: workload.Uniform(256, 0.5),
			cfg: func() Config { return tinyL2Config(p) },
		})
	}
	cases = append(cases,
		eventPathCase{
			name: "tiny-l2-loss/FtDirCMP", workload: workload.Uniform(256, 0.5),
			cfg: func() Config { return withLoss(tinyL2Config(FtDirCMP), 20000, 5) },
		},
		eventPathCase{
			name: "tiny-l2-tile-death/FtDirCMP", workload: workload.Uniform(256, 0.5),
			cfg: func() Config {
				cfg := tinyL2Config(FtDirCMP)
				cfg.Injector = fault.NewTileDeath(1, msg.GetX, 40)
				return cfg
			},
		},
		eventPathCase{
			name: "link-death/FtDirCMP", workload: workload.Uniform(256, 0.5),
			cfg: func() Config {
				cfg := smallConfig(FtDirCMP)
				cfg.Injector = fault.NewLinkDeath(0, 1, msg.Data, 3)
				return cfg
			},
		},
	)
	// A tile death inside each handshake a Table 3 timeout guards: the
	// survivor's timer is the first to time out on the dead tile, so its
	// firing handler declares the tile dead and parks the record until the
	// reconstruction flush. A short backup or lost-AckBD timeout puts that
	// timer ahead of the lost-request timeouts of the other survivors.
	shortBackup := func(cfg Config) Config { cfg.Params.BackupTimeout = 500; return cfg }
	shortAckBD := func(cfg Config) Config { cfg.Params.LostAckBDTimeout = 500; return cfg }
	uniform, migratory := workload.Uniform(256, 0.5), workload.Migratory(8)
	for _, d := range []struct {
		handshake string
		cfg       Config
		workload  workload.Workload
		tile      int
		typ       msg.Type
		nth       uint64
	}{
		{"l1-backup", shortBackup(smallConfig(FtDirCMP)), uniform, 0, msg.AckO, 15},
		{"l1-wb-backup", shortBackup(smallConfig(FtDirCMP)), uniform, 0, msg.AckO, 134},
		{"l1-lost-ackbd", smallConfig(FtDirCMP), migratory, 0, msg.AckO, 15},
		{"l2-wbping", smallConfig(FtDirCMP), uniform, 1, msg.WbData, 134},
		{"l2-backup", shortBackup(smallConfig(FtDirCMP)), uniform, 0, msg.DataEx, 1},
		{"l2-lost-ackbd", smallConfig(FtDirCMP), uniform, 1, msg.WbData, 197},
		{"l2-recall", tinyL2Config(FtDirCMP), uniform, 0, msg.DataEx, 99},
		{"mem-lost-ackbd", shortAckBD(tinyL2Config(FtDirCMP)), uniform, 0, msg.AckO, 57},
	} {
		d := d
		cases = append(cases, eventPathCase{
			name: "tile-death/" + d.handshake + "/FtDirCMP", workload: d.workload,
			cfg: func() Config {
				cfg := d.cfg
				cfg.Injector = fault.NewTileDeath(d.tile, d.typ, d.nth)
				return cfg
			},
		})
	}
	return cases
}

// runEventPath runs one case and renders its pinned line.
func runEventPath(t *testing.T, c eventPathCase) string {
	t.Helper()
	cfg := c.cfg()
	cfg.Limit = 20_000_000
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", c.name, err)
	}
	var runErr error
	completed := 0
	if c.burst > 0 {
		var cores []*burstCore
		for i := range s.Ports() {
			bc := newBurstCore(s, i, 48, c.burst, 30, cfg.Seed)
			cores = append(cores, bc)
			bc.issue()
		}
		runErr = s.Engine().Run(cfg.Limit)
		for _, bc := range cores {
			completed += bc.completed
		}
		if runErr == nil {
			if errs := s.CheckCoherence(); len(errs) > 0 {
				runErr = errs[0]
			}
		}
	} else {
		_, runErr = s.Run(c.workload)
		completed = int(s.Stats().Ops)
	}
	verdict := "ok"
	if runErr != nil {
		verdict = runErr.Error()
	}
	return fmt.Sprintf("%s cycles=%d events=%d messages=%d dropped=%d completed=%d image=%016x verdict=%q\n",
		c.name, s.Engine().Now(), s.Engine().EventsExecuted(), s.Stats().Net.TotalMessages(),
		s.Stats().Net.TotalDropped(), completed, s.MemoryImageHash(), verdict)
}

// TestEventPathsGolden pins the runs above byte for byte: cycles, events
// executed, messages, completed accesses, memory-image hash and verdict.
// Regenerate with `go test -run TestEventPathsGolden -update-golden
// ./internal/system` only for an intended change of behaviour.
func TestEventPathsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range eventPathCases() {
		out.WriteString(runEventPath(t, c))
	}
	path := filepath.Join("testdata", "event_paths.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("event paths drifted from %s:\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

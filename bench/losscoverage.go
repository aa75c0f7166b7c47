package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/workload"
)

// loss-coverage runs the exhaustive single-loss campaign ftcheck
// -exhaustive runs: FtDirCMP on the quick system must recover from every
// injectable message loss and every sampled double fault, and DirCMP must
// recover from none. One campaign pair is one sample; an op is one
// simulation run of the pair (the census baselines included).

const (
	coverageWorkload = "uniform"
	coverageDoubles  = 24
	// dirCMPCycleLimit bounds each DirCMP slot run, as ftcheck does: a
	// lost message deadlocks DirCMP or livelocks it until the limit.
	dirCMPCycleLimit = 5_000_000
)

// campaignCounts accumulates what a traced campaign's runs did.
type campaignCounts struct {
	mu                       sync.Mutex
	busy                     time.Duration
	events, cycles, messages uint64
	timeouts, reissues       uint64
}

func runLossCoverage(r *run) error {
	ops := 20
	doubles := coverageDoubles
	if r.opts.Tiny {
		ops, doubles = 4, 4
	}
	par := runtime.NumCPU()
	seed := derive(r.opts.Seed, "loss-coverage")
	dfSeed := derive(r.opts.Seed, "loss-coverage/doubles")
	ft := reproConfig(true, repro.FtDirCMP, ops, seed)
	ft.Parallelism = par
	dir := reproConfig(true, repro.DirCMP, ops, seed)
	dir.Parallelism = par
	dir.CycleLimit = dirCMPCycleLimit
	r.param("system", systemName(true))
	r.param("workload", coverageWorkload)
	r.param("ops_per_core", ops)
	r.param("config_seed", seed)
	r.param("double_fault_samples", doubles)
	r.param("double_fault_seed", dfSeed)
	r.param("parallelism", par)

	protocols := []repro.Protocol{repro.FtDirCMP, repro.DirCMP}
	if err := simSetup(r, 101, true, protocols, []string{coverageWorkload}, ops, seed); err != nil {
		return err
	}

	root, endRoot := r.tr.start("loss-coverage", 0, 1)
	defer endRoot()
	var firstFT, firstDir, lastFT, lastDir []byte
	var lat, thr, bpo, apo, busy, nsPerEvent []float64
	var counts *campaignCounts
	var runs, slots int
	err := r.repeat(2, func(i int) error {
		sample, endSample := r.tr.start("sample", root, 1)
		counts = &campaignCounts{}
		am := startAllocs()
		t0 := time.Now()
		ftRep, err := r.campaign(sample, ft, repro.CoverageOptions{DoubleFaultSamples: doubles, Seed: dfSeed}, counts)
		if err != nil {
			return err
		}
		dirRep, err := r.campaign(sample, dir, repro.CoverageOptions{}, counts)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		runs = 2 + ftRep.SlotsTested + len(ftRep.DoubleFaults) + dirRep.SlotsTested
		b, o := am.per(runs)
		endSample()

		slots = ftRep.SlotsTested + dirRep.SlotsTested
		r.attempt(runs)
		r.checkCoverage(ftRep, dirRep)
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		thr = append(thr, float64(runs)/d.Seconds())
		bpo = append(bpo, b)
		apo = append(apo, o)
		if r.tr != nil {
			busy = append(busy, counts.busy.Seconds()/(d.Seconds()*float64(par)))
			nsPerEvent = append(nsPerEvent, float64(d.Nanoseconds())/float64(counts.events))
		}
		ftJSON, _ := json.Marshal(ftRep)
		dirJSON, _ := json.Marshal(dirRep)
		if i == 0 {
			firstFT, firstDir = ftJSON, dirJSON
		}
		lastFT, lastDir = ftJSON, dirJSON
		return nil
	})
	if err != nil {
		return err
	}

	if !bytes.Equal(firstFT, lastFT) || !bytes.Equal(firstDir, lastDir) {
		r.fail("coverage reports differ between the first and the last sample")
	}
	if r.tr == nil {
		r.ref["loss-coverage"] = [2][]byte{firstFT, firstDir}
	} else if ref, ok := r.ref["loss-coverage"].([2][]byte); ok {
		if !bytes.Equal(ref[0], firstFT) || !bytes.Equal(ref[1], firstDir) {
			r.fail("coverage reports from direct system runs differ from repro.Coverage's")
		}
	}

	r.samples("latency_ms", lat)
	r.samples("throughput", thr)
	r.samples("alloc_bytes_per_op", bpo)
	r.samples("allocs_per_op", apo)
	r.set("coverage.slots", float64(slots))
	r.set("coverage.runs", float64(runs))
	r.set("runner.jobs", float64(runs-2))
	if r.tr != nil {
		r.samples("runner.busy_ratio", busy)
		r.set("sim.events", float64(counts.events))
		r.samples("sim.ns_per_event", nsPerEvent)
		r.set("stats.sim_cycles", float64(counts.cycles))
		r.set("stats.sim_messages", float64(counts.messages))
		r.set("core.timeouts", float64(counts.timeouts))
		r.set("core.reissues", float64(counts.reissues))
	}
	return nil
}

// checkCoverage records the campaign pair's verdict: FtDirCMP recovers
// from every slot and double fault, DirCMP from none.
func (r *run) checkCoverage(ft, dir *repro.CoverageReport) {
	for i := 0; i < ft.TotalFailures; i++ {
		r.fail("FtDirCMP did not recover from a single loss (%d of %d slots)", ft.TotalFailures, ft.SlotsTested)
	}
	if ft.TotalFailures == 0 && !ft.FullCoverage() {
		r.fail("FtDirCMP campaign incomplete: %d of %d slots recovered", ft.Recovered, ft.TotalSlots)
	}
	for i := ft.DoubleFaultRecovered; i < len(ft.DoubleFaults); i++ {
		r.fail("FtDirCMP did not recover from a double fault (%d of %d recovered)", ft.DoubleFaultRecovered, len(ft.DoubleFaults))
	}
	for i := 0; i < dir.Recovered; i++ {
		r.fail("DirCMP recovered from %d of %d single losses, want 0", dir.Recovered, dir.SlotsTested)
	}
	if dir.SlotsTested == 0 {
		r.fail("DirCMP campaign tested no slots")
	}
}

// campaign runs one coverage campaign: through repro.Coverage in the
// untraced phase, and through coverage.RunContext with the benchmark's own
// run function — which spans and counts every run — in the traced phase.
func (r *run) campaign(parent int, cfg repro.Config, opt repro.CoverageOptions, counts *campaignCounts) (*repro.CoverageReport, error) {
	if r.tr == nil {
		return repro.Coverage(cfg, coverageWorkload, opt)
	}
	id, end := r.tr.start(cfg.Protocol.String()+" campaign", parent, 1)
	defer end()
	sc := sysConfig(true, cfg.Protocol, cfg.OpsPerCore, cfg.Seed)
	sc.Limit = cfg.CycleLimit
	rep, err := coverage.RunContext(context.Background(), r.coverageRun(id, sc, counts), coverage.Options{
		Parallelism:        cfg.Parallelism,
		DoubleFaultSamples: opt.DoubleFaultSamples,
		Seed:               opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	rep.Protocol = cfg.Protocol.String()
	rep.Workload = coverageWorkload
	return rep, nil
}

// coverageRun is the run function repro.Coverage uses, rebuilt from the
// internal packages with a span around each layer call.
func (r *run) coverageRun(parent int, cfg system.Config, counts *campaignCounts) coverage.RunFunc {
	return func(inj fault.Injector) coverage.Outcome {
		lane := r.tr.acquireLane()
		defer r.tr.releaseLane(lane)
		id, end := r.tr.start("run", parent, lane)
		defer end()
		t0 := time.Now()
		w, err := workload.ByName(coverageWorkload)
		if err != nil {
			return coverage.Outcome{Err: err.Error()}
		}
		c := cfg
		c.Injector = inj
		rec := obs.NewRecorder(4096)
		c.Obs = rec

		_, endNew := r.tr.start("system.New", id, lane)
		s, err := system.New(c)
		endNew()
		if err != nil {
			return coverage.Outcome{Err: err.Error()}
		}
		_, endRun := r.tr.start("system.Run", id, lane)
		st, rerr := s.Run(w)
		endRun()

		_, endVerify := r.tr.start("verify", id, lane)
		out := coverage.Outcome{Cycles: st.Cycles}
		if m := rec.Metrics(); m != nil {
			out.FaultsInjected = m.FaultsInjected
			out.FaultsRecovered = m.FaultsRecovered
			out.RecoveryLatencyMax = m.RecoveryLatency.Max()
			for _, k := range obs.AllTimeoutKinds() {
				out.Timeouts[k] = m.TimeoutsByKind[k]
			}
		}
		if rerr != nil {
			out.Err = rerr.Error()
		} else {
			out.MemHash = s.MemoryImageHash()
		}
		endVerify()

		counts.mu.Lock()
		counts.busy += time.Since(t0)
		counts.events += s.Engine().EventsExecuted()
		counts.cycles += st.Cycles
		counts.messages += st.Net.TotalMessages()
		counts.timeouts += st.Proto.LostRequestTimeouts + st.Proto.LostUnblockTimeouts + st.Proto.LostAckBDTimeouts + st.Proto.BackupTimeouts
		counts.reissues += st.Proto.RequestsReissued
		counts.mu.Unlock()
		return out
	}
}

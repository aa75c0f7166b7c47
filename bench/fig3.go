package bench

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/system"
	"repro/internal/workload"
)

// fig3 runs the paper's Figure 3/4 experiment: DirCMP and FtDirCMP,
// fault-free, on every suite workload of the Table-4 system, serially. One
// 16-run sweep is one sample; an op is one run.

// simOutcome is what one simulation run must reproduce exactly.
type simOutcome struct {
	cycles, messages, memHash uint64
	timeouts, reissues        uint64
}

func (o simOutcome) String() string {
	return fmt.Sprintf("cycles %d, messages %d, memory image %#x", o.cycles, o.messages, o.memHash)
}

type fig3Job struct {
	protocol repro.Protocol
	workload string
}

func runFig3(r *run) error {
	quick, ops := false, 2000
	if r.opts.Tiny {
		quick, ops = true, 50
	}
	seed := derive(r.opts.Seed, "fig3")
	protocols := []repro.Protocol{repro.DirCMP, repro.FtDirCMP}
	var jobs []fig3Job
	for _, p := range protocols {
		for _, w := range repro.Workloads() {
			jobs = append(jobs, fig3Job{p, w})
		}
	}
	r.param("system", systemName(quick))
	r.param("ops_per_core", ops)
	r.param("config_seed", seed)
	r.param("runs_per_sample", len(jobs))
	r.param("parallelism", 1)

	if err := simSetup(r, 11, quick, protocols, repro.Workloads(), ops, seed); err != nil {
		return err
	}

	root, endRoot := r.tr.start("fig3", 0, 1)
	defer endRoot()
	var first, last []simOutcome
	var lat, thr, bpo, apo, nsPerEvent []float64
	var cycles, messages, events, timeouts, reissues uint64
	err := r.repeat(2, func(i int) error {
		sample, endSample := r.tr.start("sample", root, 1)
		outs := make([]simOutcome, len(jobs))
		cycles, messages, events, timeouts, reissues = 0, 0, 0, 0, 0
		am := startAllocs()
		t0 := time.Now()
		for k, j := range jobs {
			r.attempt(1)
			var out simOutcome
			var err error
			if r.tr == nil {
				out, err = fig3Public(quick, j, ops, seed)
			} else {
				var ev uint64
				out, ev, err = r.fig3Traced(sample, quick, j, ops, seed)
				events += ev
			}
			if err != nil {
				r.fail("%s/%s: %v", j.protocol, j.workload, err)
				continue
			}
			outs[k] = out
			cycles += out.cycles
			messages += out.messages
			timeouts += out.timeouts
			reissues += out.reissues
		}
		d := time.Since(t0)
		b, o := am.per(len(jobs))
		endSample()
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		thr = append(thr, float64(cycles)/d.Seconds())
		bpo = append(bpo, b)
		apo = append(apo, o)
		if events > 0 {
			nsPerEvent = append(nsPerEvent, float64(d.Nanoseconds())/float64(events))
		}
		if i == 0 {
			first = outs
		}
		last = outs
		return nil
	})
	if err != nil {
		return err
	}

	// Output checks: every sample reproduces the first exactly, both
	// protocols commit the same memory image per workload (it is a function
	// of the workload alone), and the traced runs, which build the system
	// themselves, reproduce the public API's results.
	n := len(jobs) / 2
	for k, j := range jobs {
		if first[k] != last[k] {
			r.fail("%s/%s not deterministic: first sample %v, last %v", j.protocol, j.workload, first[k], last[k])
		}
		if k < n && first[k].memHash != first[k+n].memHash {
			r.fail("%s: DirCMP and FtDirCMP memory images differ (%#x vs %#x)", j.workload, first[k].memHash, first[k+n].memHash)
		}
	}
	if r.tr == nil {
		r.ref["fig3"] = first
	} else if ref, ok := r.ref["fig3"].([]simOutcome); ok {
		for k, j := range jobs {
			if ref[k] != first[k] {
				r.fail("%s/%s: direct system run %v, repro.Run %v", j.protocol, j.workload, first[k], ref[k])
			}
		}
	}

	r.samples("latency_ms", lat)
	r.samples("throughput", thr)
	r.samples("alloc_bytes_per_op", bpo)
	r.samples("allocs_per_op", apo)
	r.set("stats.sim_cycles", float64(cycles))
	r.set("stats.sim_messages", float64(messages))
	r.set("core.timeouts", float64(timeouts))
	r.set("core.reissues", float64(reissues))
	if events > 0 {
		r.set("sim.events", float64(events))
		r.samples("sim.ns_per_event", nsPerEvent)
	}
	return nil
}

// fig3Public runs one simulation through the public API, as users do.
func fig3Public(quick bool, j fig3Job, ops int, seed uint64) (simOutcome, error) {
	cfg := reproConfig(quick, j.protocol, ops, seed)
	cfg.Parallelism = 1
	res, err := repro.Run(cfg, j.workload)
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{
		cycles: res.Cycles, messages: res.Messages, memHash: res.MemoryImageHash,
		timeouts: res.LostRequestTimeouts + res.LostUnblockTimeouts + res.LostAckBDTimeouts + res.BackupTimeouts,
		reissues: res.RequestsReissued,
	}, nil
}

// fig3Traced runs one simulation on a system it builds itself, with a span
// around each layer call, and also returns the events the engine executed.
func (r *run) fig3Traced(parent int, quick bool, j fig3Job, ops int, seed uint64) (simOutcome, uint64, error) {
	id, end := r.tr.start(j.protocol.String()+"/"+j.workload, parent, 1)
	defer end()
	w, err := workload.ByName(j.workload)
	if err != nil {
		return simOutcome{}, 0, err
	}
	_, endNew := r.tr.start("system.New", id, 1)
	s, err := system.New(sysConfig(quick, j.protocol, ops, seed))
	endNew()
	if err != nil {
		return simOutcome{}, 0, err
	}
	_, endRun := r.tr.start("system.Run", id, 1)
	st, err := s.Run(w)
	endRun()
	if err != nil {
		return simOutcome{}, 0, err
	}
	_, endVerify := r.tr.start("verify", id, 1)
	out := simOutcome{
		cycles: st.Cycles, messages: st.Net.TotalMessages(), memHash: s.MemoryImageHash(),
		timeouts: st.Proto.LostRequestTimeouts + st.Proto.LostUnblockTimeouts + st.Proto.LostAckBDTimeouts + st.Proto.BackupTimeouts,
		reissues: st.Proto.RequestsReissued,
	}
	endVerify()
	return out, s.Engine().EventsExecuted(), nil
}

package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"repro"
)

// interleave runs the model-checking gate ftcheck -interleave runs, at
// fault budget 3: FtDirCMP must exhaust every delivery order × ≤3 losses
// of the handoff shape with no violation, DirCMP must yield a
// counterexample, and the counterexample must replay to the same
// violation. One gate is one sample and one op.
//
// The handoff shape is fixed (two cores alternating writes to one line),
// so -seed changes only the configuration's seed, which the shape ignores:
// every seed explores the same state space.

func runInterleave(r *run) error {
	ops, budget := 2, 3
	if r.opts.Tiny {
		budget = 1
	}
	par := runtime.NumCPU()
	seed := derive(r.opts.Seed, "interleave")
	ft := reproConfig(true, repro.FtDirCMP, ops, seed)
	ft.Parallelism = par
	dir := ft
	dir.Protocol = repro.DirCMP
	opt := repro.InterleaveOptions{FaultBudget: budget}
	r.param("system", systemName(true))
	r.param("workload", repro.InterleaveWorkload)
	r.param("ops_per_core", ops)
	r.param("fault_budget", budget)
	r.param("config_seed", seed)
	r.param("parallelism", par)

	protocols := []repro.Protocol{repro.FtDirCMP, repro.DirCMP}
	if err := simSetup(r, 101, true, protocols, []string{repro.InterleaveWorkload}, ops, seed); err != nil {
		return err
	}

	root, endRoot := r.tr.start("interleave", 0, 1)
	defer endRoot()
	var first, last []byte
	var lat, thr, bpo, apo []float64
	var ftRep *repro.InterleaveReport
	err := r.repeat(2, func(i int) error {
		sample, endSample := r.tr.start("sample", root, 1)
		am := startAllocs()
		t0 := time.Now()
		_, end := r.tr.start("explore FtDirCMP", sample, 1)
		var err error
		ftRep, err = repro.Interleave(ft, repro.InterleaveWorkload, opt)
		end()
		if err != nil {
			return err
		}
		_, end = r.tr.start("explore DirCMP", sample, 1)
		dirRep, err := repro.Interleave(dir, repro.InterleaveWorkload, opt)
		end()
		if err != nil {
			return err
		}
		var replay *repro.InterleaveReplayResult
		if len(dirRep.Violations) > 0 {
			_, end = r.tr.start("replay", sample, 1)
			replay, err = repro.InterleaveReplay(dir, repro.InterleaveWorkload, dirRep.Violations[0].Schedule)
			end()
			if err != nil {
				return err
			}
		}
		d := time.Since(t0)
		b, o := am.per(1)
		endSample()

		r.attempt(1)
		r.checkInterleave(ftRep, dirRep, replay)
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		thr = append(thr, float64(ftRep.StatesExplored+dirRep.StatesExplored)/d.Seconds())
		bpo = append(bpo, b)
		apo = append(apo, o)
		doc, _ := json.Marshal([]any{ftRep, dirRep, replay})
		if i == 0 {
			first = doc
		}
		last = doc
		return nil
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(first, last) {
		r.fail("interleaving reports differ between the first and the last sample")
	}

	r.samples("latency_ms", lat)
	r.samples("throughput", thr)
	r.samples("alloc_bytes_per_op", bpo)
	r.samples("allocs_per_op", apo)
	r.set("mc.states", float64(ftRep.StatesExplored))
	r.set("mc.paths", float64(ftRep.Transitions))
	r.set("mc.revisits", float64(ftRep.StatesDeduped))
	return nil
}

// checkInterleave records the gate's verdict.
func (r *run) checkInterleave(ft, dir *repro.InterleaveReport, replay *repro.InterleaveReplayResult) {
	if !ft.Exhausted {
		r.fail("FtDirCMP exploration did not exhaust (%d paths depth-limited)", ft.DepthLimited)
	}
	if len(ft.Violations) > 0 {
		r.fail("FtDirCMP violation: %s: %s", ft.Violations[0].Kind, ft.Violations[0].Err)
	}
	if len(dir.Violations) == 0 {
		r.fail("DirCMP exploration found no counterexample")
		return
	}
	v := dir.Violations[0]
	if replay.Kind != v.Kind || replay.Err != v.Err || replay.StateHash != v.StateHash {
		r.fail("DirCMP counterexample replayed to %s/%#x, recorded %s/%#x", replay.Kind, replay.StateHash, v.Kind, v.StateHash)
	}
}

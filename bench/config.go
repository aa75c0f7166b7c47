package bench

import (
	"repro"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/workload"
)

// reproConfig is the public configuration of a workload's system: the
// paper's Table-4 system (repro.DefaultConfig) or the 2×2 quick system
// (repro.QuickConfig), with the given run length, seed and protocol.
func reproConfig(quick bool, p repro.Protocol, ops int, seed uint64) repro.Config {
	cfg := repro.DefaultConfig()
	if quick {
		cfg = repro.QuickConfig()
	}
	cfg.Protocol = p
	cfg.OpsPerCore = ops
	cfg.Seed = seed
	return cfg
}

// sysConfig is the internal configuration repro builds for the same
// system, so the traced runs can call system.New directly and time it.
// The traced runs cross-check their cycles and memory images against the
// untraced runs' repro results, which keeps the two constructions in step.
func sysConfig(quick bool, p repro.Protocol, ops int, seed uint64) system.Config {
	c := system.DefaultConfig()
	if quick {
		c.MeshWidth, c.MeshHeight, c.Mems = 2, 2, 2
		c.Params.L1Size = 8 * 1024
		c.Params.L2Size = 32 * 1024
	}
	c.Protocol = system.FtDirCMP
	if p == repro.DirCMP {
		c.Protocol = system.DirCMP
	}
	c.OpsPerCore = ops
	c.Seed = seed
	c.Net.RoutingSeed = seed
	c.Obs = obs.NewRecorder(0)
	return c
}

// simSetup is the set-up of a simulation workload: generating the inputs
// of every system one sample simulates and building those systems —
// system.New, then Begin, which draws each core's operation stream and
// starts the cores. It times reps repetitions into setup_s.
func simSetup(r *run, reps int, quick bool, protocols []repro.Protocol, workloads []string, ops int, seed uint64) error {
	return r.setup(reps, func() error {
		for _, p := range protocols {
			for _, name := range workloads {
				w, err := workload.ByName(name)
				if err != nil {
					return err
				}
				s, err := system.New(sysConfig(quick, p, ops, seed))
				if err != nil {
					return err
				}
				s.Begin(w)
			}
		}
		return nil
	})
}

// systemName labels a system size in the report.
func systemName(quick bool) string {
	if quick {
		return "quick 2x2 (repro.QuickConfig)"
	}
	return "Table 4 4x4 (repro.DefaultConfig)"
}

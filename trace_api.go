package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/workload"
)

// RunTrace simulates a recorded memory-access trace instead of a synthetic
// workload. The trace format has one operation per line — "<core> <r|w>
// <line-index>" — with '#' comments; see WriteTrace for exporting the
// built-in workloads in this format. name labels the run in reports.
//
// The trace defines each core's operation count (Config.OpsPerCore is
// ignored); cores beyond those present in the trace simply stay idle, and
// a trace naming more cores than the configured mesh is an error.
func RunTrace(cfg Config, name string, r io.Reader) (*Result, error) {
	w, err := workload.ParseTrace(name, r)
	if err != nil {
		return nil, err
	}
	if w.Cores() > cfg.MeshWidth*cfg.MeshHeight {
		return nil, fmt.Errorf("repro: trace uses %d cores but the system has %d tiles",
			w.Cores(), cfg.MeshWidth*cfg.MeshHeight)
	}
	return runResult(context.Background(), cfg, w, cfg.injector())
}

// WriteTrace exports a built-in workload as a replayable trace, using the
// configuration's topology, operation count and seed.
func WriteTrace(cfg Config, workloadName string, out io.Writer) error {
	w, err := workload.ByName(workloadName)
	if err != nil {
		return err
	}
	return workload.WriteTrace(out, w, cfg.MeshWidth*cfg.MeshHeight, cfg.OpsPerCore, cfg.Seed)
}

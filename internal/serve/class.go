package serve

import (
	"context"
	"fmt"
	"strings"

	"repro"
)

// class is one experiment class, the service's only definition of it.
type class struct {
	name, workload string // workload is the default workload
	// param names the request field holding the class's params ("" for
	// none); every other class rejects that field.
	param string
	// base adjusts the base configuration before the request's overrides,
	// so an override still wins; check validates the resolved request and
	// fills its param defaults. Either may be nil.
	base  func(*repro.Config)
	check func(*resolved) error
	// steps is the progress total the worker publishes as (0, steps)
	// before run and (steps, steps) after it; 0 when run reports its own.
	steps int
	// run returns the payload the worker marshals into the result bytes,
	// and the Result a single run retains for /trace.
	run func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error)
}

// classes is the closed set of experiment classes.
var classes = []*class{
	{name: "run", workload: "uniform", steps: 1,
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			res, err := repro.RunContext(ctx, cfg, j.req.Workload)
			return res, res, err
		}},
	{name: "sweep", workload: "uniform", param: "rates",
		check: func(r *resolved) error {
			if len(r.Rates) == 0 {
				return fmt.Errorf("sweep requires a non-empty rates list")
			}
			return nonNegative("rates", r.Rates...)
		},
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			j.publishCounts(0, len(j.req.Rates))
			results, err := repro.FaultSweepContext(ctx, cfg, j.req.Workload, j.req.Rates, j.publish)
			return map[string]any{"rates": j.req.Rates, "results": results}, nil, err
		}},
	{name: "compare", workload: "uniform", steps: 2,
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			dir, ft, err := repro.CompareContext(ctx, cfg, j.req.Workload)
			if err != nil {
				return nil, nil, err
			}
			return map[string]any{
				"dir":              dir,
				"ft":               ft,
				"time_overhead":    ft.TimeOverheadVs(dir),
				"message_overhead": ft.MessageOverheadVs(dir),
				"byte_overhead":    ft.ByteOverheadVs(dir),
			}, nil, nil
		}},
	{name: "coverage", workload: "uniform", param: "coverage",
		check: func(r *resolved) error {
			if o := r.Coverage; o != nil {
				return nonNegative("coverage params", o.MaxSlotsPerType, o.DoubleFaultSamples, o.DoubleFaultWindow)
			}
			return nil
		},
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			var opt repro.CoverageOptions
			if j.req.Coverage != nil {
				opt = *j.req.Coverage
			}
			opt.Progress = j.publishCounts
			rep, err := repro.CoverageContext(ctx, cfg, j.req.Workload, opt)
			return rep, nil, err
		}},
	{name: "tile-death", workload: "uniform", param: "tile_death",
		check: func(r *resolved) error {
			if o := r.TileDeath; o != nil {
				return nonNegative("tile_death params", o.MaxSlotsPerType)
			}
			return nil
		},
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			var opt repro.TileDeathOptions
			if j.req.TileDeath != nil {
				opt = *j.req.TileDeath
			}
			opt.Progress = j.publishCounts
			rep, err := repro.TileDeathCoverageContext(ctx, cfg, j.req.Workload, opt)
			return rep, nil, err
		}},
	{name: "interleave", workload: repro.InterleaveWorkload, param: "interleave", steps: 1,
		// An unset operation count means the checker's canonical two-op
		// handoff, not the simulation default (which would never exhaust).
		base: func(c *repro.Config) { c.OpsPerCore = 2 },
		check: func(r *resolved) error {
			// Normalizing the default budget keeps "absent" and
			// "fault_budget": 1 on one cache key.
			if r.Interleave == nil {
				r.Interleave = &repro.InterleaveOptions{FaultBudget: 1}
			}
			// The gate enumerates every interleaving: keep the model small,
			// or the exploration would never terminate.
			c := r.Config
			if tiles := c.MeshWidth * c.MeshHeight; tiles > 4 || c.OpsPerCore > 8 {
				return fmt.Errorf("interleave explores exhaustively: need a quick config with at most 4 tiles and 8 ops/core (got %d tiles, %d ops/core)", tiles, c.OpsPerCore)
			}
			return nonNegative("interleave params", r.Interleave.MaxDepth, r.Interleave.FaultBudget)
		},
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			doc, err := repro.InterleaveGate(ctx, cfg, j.req.Workload, *j.req.Interleave)
			if err != nil {
				return nil, nil, err
			}
			verdict, gateErr := "pass", ""
			if err := doc.Err(); err != nil {
				verdict, gateErr = "fail", err.Error()
			}
			return map[string]any{"verdict": verdict, "gate_error": gateErr, "doc": doc}, nil, nil
		}},
	{name: "profile", workload: "uniform", steps: 2,
		run: func(ctx context.Context, cfg repro.Config, j *job) (any, *repro.Result, error) {
			rep, err := repro.ProfileContext(ctx, cfg, j.req.Workload)
			return rep, nil, err
		}},
}

// classOf returns the class named name, or an error listing the classes.
func classOf(name string) (*class, error) {
	for _, c := range classes {
		if c.name == name {
			return c, nil
		}
	}
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.name
	}
	last := len(names) - 1
	return nil, fmt.Errorf("unknown experiment type %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// nonNegative fails on a negative value: no rate, count, depth or budget is
// negative, and a negative one would run as 0 under a job ID of its own.
func nonNegative(what string, vals ...int) error {
	for _, v := range vals {
		if v < 0 {
			return fmt.Errorf("%s must not be negative (got %d)", what, v)
		}
	}
	return nil
}

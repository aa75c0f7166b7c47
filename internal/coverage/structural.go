package coverage

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/msg"
)

// Structural-fault campaign: instead of losing single messages, each run
// permanently kills one tile (its L1, L2 bank and directory slice) or one
// NoC link at an enumerated injection slot. The fault space is the cross
// product (victim × injection slot): the same census/slot enumeration the
// message-loss campaign uses decides *when* the fault strikes, and every
// victim is killed at every enumerated instant.
//
// The verdict is necessarily weaker than the message-loss campaign's
// bit-identical memory hash: a dead tile legitimately takes its core's
// uncommitted write tail and any dirty-exclusive data with it. The extended
// verdict (tileDeathVerdict) therefore compares the final memory image
// line by line against the fault-free baseline: no line may ever be AHEAD
// of the baseline, lines the victim's operation list writes may lag it,
// lines reported unrecoverable by the reconstruction are skipped but
// counted, and every other line must match exactly — so a lost survivor
// write can never hide behind the dead tile.

// StructuralOptions configures a tile-death / link-death campaign.
type StructuralOptions struct {
	// Parallelism is the worker count (<=0 selects all cores). Reports are
	// byte-identical for any value.
	Parallelism int
	// MaxSlotsPerType caps the injection slots tested per message type for
	// each victim (0 = exhaustive; sampling is deterministic).
	MaxSlotsPerType int
	// Tiles is the tile count; every tile in [0,Tiles) is killed in turn,
	// one report row per victim.
	Tiles int
	// Links lists mesh links (adjacent router pairs) to kill, one report
	// row per link; empty skips the link-death sweep.
	Links [][2]int
	// VictimWrites returns the set of line addresses the victim tile's
	// operation list writes; required when Tiles > 0 (the restricted
	// verdict allows exactly those lines to lag the baseline).
	VictimWrites func(tile int) map[msg.Addr]bool
	// Progress, when set, is called after each run with running counts.
	Progress func(done, total int)
}

// RunStructuralContext runs the structural-fault campaign: the fault-free
// baseline, then one run per (victim, slot) pair, victim-major — every
// tile, then every link. See RunContext for the cancellation contract.
func RunStructuralContext(ctx context.Context, run RunFunc, opt StructuralOptions) (*Report, error) {
	if opt.Tiles <= 0 && len(opt.Links) == 0 {
		return nil, fmt.Errorf("coverage: structural campaign needs tiles or links to kill")
	}
	if opt.Tiles > 0 && opt.VictimWrites == nil {
		return nil, fmt.Errorf("coverage: tile-death campaign needs VictimWrites")
	}
	// Rows (and so trial.row) number the tiles first, then the links.
	tiles := max(opt.Tiles, 0)
	writes := make([]map[msg.Addr]bool, tiles)
	return runCampaign(ctx, run, opt.Parallelism, opt.MaxSlotsPerType, opt.Progress, func(census *Census, slots []Slot) campaign {
		c := campaign{
			inject: func(t trial) firing {
				if t.row < tiles {
					return fault.NewTileDeath(t.row, t.slot.Type, t.slot.Nth)
				}
				l := opt.Links[t.row-tiles]
				return fault.NewLinkDeath(l[0], l[1], t.slot.Type, t.slot.Nth)
			},
			verdict: func(t trial, out, base Outcome) string {
				if t.row < tiles {
					return tileDeathVerdict(base, out, writes[t.row])
				}
				// No node died, so link death must preserve the full image.
				return VerdictErr(out, base)
			},
			// Reconstruction latency for tile deaths, timeout-recovery
			// latency for link deaths (whose one on-the-wire message is
			// re-sent by the usual machinery).
			latency: func(t trial, out Outcome) (uint64, bool) {
				if t.row < tiles {
					return out.ReconstructLatency, out.DeathDeclared
				}
				return recoveryLatency(t, out)
			},
		}
		sampled := uint64(len(slots)) < census.Total()
		victim := func(name, mode string) {
			c.rows = append(c.rows, TypeRow{Type: name, Mode: mode, Slots: census.Total(), Sampled: sampled})
			for _, s := range slots {
				c.trials = append(c.trials, trial{row: len(c.rows) - 1, slot: s})
			}
		}
		for t := range tiles {
			writes[t] = opt.VictimWrites(t)
			victim(fmt.Sprintf("tile %d", t), ModeTileDeath)
		}
		for _, l := range opt.Links {
			victim(fmt.Sprintf("link %d-%d", l[0], l[1]), ModeLinkDeath)
		}
		return c
	})
}

// tileDeathVerdict applies the extended recovery verdict to one tile-death
// run; it returns "" when the run passes and a description of the first
// violated line otherwise. The comparison walks the union of the baseline's
// and the run's memory-image domains in address order (a line absent from
// an image is at version 0).
func tileDeathVerdict(base, out Outcome, victimWrites map[msg.Addr]bool) string {
	if out.Err != "" {
		return out.Err
	}
	if !out.DeathDeclared {
		return "tile death was never declared by the survivors"
	}
	unrec := make(map[msg.Addr]bool, len(out.UnrecoverableAddrs))
	for _, a := range out.UnrecoverableAddrs {
		unrec[a] = true
	}
	addrs := make([]msg.Addr, 0, len(base.Image))
	for a := range base.Image {
		addrs = append(addrs, a)
	}
	for a := range out.Image {
		if _, ok := base.Image[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		want, got := base.Image[a], out.Image[a]
		if unrec[a] {
			// Explicitly unrecoverable: rolled back and counted, not
			// compared. Never silent — the row totals carry the count.
			continue
		}
		if got > want {
			return fmt.Sprintf("line %#x ahead of the fault-free baseline: v%d > v%d", a, got, want)
		}
		if got < want && !victimWrites[a] {
			return fmt.Sprintf("line %#x lost committed survivor writes: v%d < baseline v%d", a, got, want)
		}
	}
	return ""
}

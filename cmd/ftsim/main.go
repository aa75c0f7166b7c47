// Command ftsim runs one simulation of the DirCMP or FtDirCMP protocol on
// a chosen workload and prints the measured statistics.
//
// Examples:
//
//	ftsim -protocol=ftdircmp -workload=uniform
//	ftsim -protocol=dircmp -workload=migratory -ops=5000
//	ftsim -workload=producer -faults=2000 -seed=7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protocol  = flag.String("protocol", "ftdircmp", "protocol: dircmp, ftdircmp, tokencmp or fttokencmp")
		workload  = flag.String("workload", "uniform", "workload: "+strings.Join(repro.Workloads(), ", "))
		ops       = flag.Int("ops", 2000, "memory operations per core")
		tiles     = flag.Int("tiles", 4, "mesh width and height (tiles = N*N)")
		faults    = flag.Int("faults", 0, "messages lost per million")
		burst     = flag.Int("burst", 0, "fault burst length (0 = isolated losses)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		faultSeed = flag.Uint64("faultseed", 12345, "fault injector seed")
		migratory = flag.Bool("migratory", true, "enable the migratory-sharing optimization")
		unordered = flag.Bool("unordered", false, "adaptive (unordered) routing instead of XY")
		corrupt   = flag.Bool("corrupt", false, "realize faults as CRC-detected corruption")
		nopiggy   = flag.Bool("nopiggyback", false, "disable AckO piggybacking (ablation)")
		detailed  = flag.Bool("detailed", false, "virtual cut-through routers with finite buffers")
		bufFlits  = flag.Int("bufflits", 0, "router buffer capacity in flits (detailed mode; 0 = default)")
		traceFile = flag.String("tracefile", "", "replay a memory-access trace instead of a workload")
		dumpTrace = flag.String("dumptrace", "", "export the chosen workload as a trace to this file and exit")
	)
	flag.Parse()

	cfg := repro.DefaultConfig()
	p, err := repro.ParseProtocol(*protocol)
	if err != nil {
		return err
	}
	cfg.Protocol = p
	cfg.MeshWidth = *tiles
	cfg.MeshHeight = *tiles
	cfg.OpsPerCore = *ops
	cfg.Seed = *seed
	cfg.FaultRatePerMillion = *faults
	cfg.FaultBurstLen = *burst
	cfg.FaultSeed = *faultSeed
	cfg.MigratoryOpt = *migratory
	cfg.UnorderedNetwork = *unordered
	cfg.CorruptInsteadOfDrop = *corrupt
	cfg.DisableAckOPiggyback = *nopiggy
	cfg.DetailedNetwork = *detailed
	cfg.RouterBufferFlits = *bufFlits

	if cfg.Protocol == repro.DirCMP && *faults > 0 {
		fmt.Println("note: DirCMP is not fault tolerant; expect a deadlock report")
	}

	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := repro.WriteTrace(cfg, *workload, f); err != nil {
			return err
		}
		fmt.Printf("wrote %s trace to %s\n", *workload, *dumpTrace)
		return nil
	}

	var res *repro.Result
	if *traceFile != "" {
		f, openErr := os.Open(*traceFile)
		if openErr != nil {
			return openErr
		}
		defer f.Close()
		res, err = repro.RunTrace(cfg, *traceFile, f)
	} else {
		res, err = repro.Run(cfg, *workload)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.ReportText)
	return nil
}

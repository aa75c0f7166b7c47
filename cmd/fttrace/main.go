// Command fttrace runs a simulation while recording the coherence message
// flow, then prints it — optionally filtered to one cache line — for
// debugging and for studying the protocols' behaviour.
//
// Besides the default text dump of the message flow, -format exports the
// run's structured protocol event log (see docs/OBSERVABILITY.md):
// -format=jsonl writes one JSON object per event to stdout, -format=chrome
// writes a Chrome trace-event JSON document loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing, and -format=spans writes
// the reconstructed coherence transaction spans — one JSON object per
// transaction with its per-phase latency attribution (see internal/span).
// All exports are deterministic: re-running with the same flags is
// byte-identical.
//
// With -replay, fttrace re-executes a model-checking counterexample instead
// of simulating: the argument is the JSON document `ftcheck -interleave
// -json` wrote, the recorded violating schedule is replayed
// deterministically with event recording, and the result is exported in the
// chosen -format (text prints the schedule and the reached violation;
// jsonl/chrome export the replay's event log — the counterexample as a
// Perfetto timeline). See docs/MODELCHECK.md.
//
// With -url and -id, fttrace fetches a trace from a running ftserve fleet
// instead of simulating locally: GET {url}/v1/experiments/{id}/trace with
// the chosen -format. In this mode -format=service is also valid — it
// downloads the fleet-wide request trace (HTTP request to coherence
// transaction; see docs/OBSERVABILITY.md, "Service tracing").
//
// Examples:
//
//	fttrace -workload=migratory -addr=0x40 -last=60
//	fttrace -protocol=dircmp -workload=producer -last=40
//	fttrace -workload=uniform -faults=5000 -addr=0x1000
//	fttrace -workload=uniform -faults=5000 -format=jsonl > events.jsonl
//	fttrace -workload=uniform -faults=5000 -format=chrome > trace.json
//	fttrace -workload=uniform -faults=5000 -format=spans > spans.jsonl
//	fttrace -url=http://localhost:8080 -id=<job id> -format=service > trace.json
//	ftcheck -interleave -json=mc.json && fttrace -replay=mc.json -format=chrome > cex.json
//
// Node numbering in the output: L1 caches are 1..T, L2 banks T+1..2T,
// memory controllers 2T+1.. (T = tile count).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/span"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fttrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protocol = flag.String("protocol", "ftdircmp", "protocol: dircmp, ftdircmp, tokencmp or fttokencmp")
		wname    = flag.String("workload", "uniform", "workload name")
		ops      = flag.Int("ops", 300, "operations per core")
		tiles    = flag.Int("tiles", 2, "mesh width and height")
		faults   = flag.Int("faults", 0, "messages lost per million")
		seed     = flag.Uint64("seed", 1, "seed")
		addr     = flag.Uint64("addr", 0, "record only this line address (0 = all)")
		last     = flag.Int("last", 80, "how many trailing events to print")
		format   = flag.String("format", "text", "output: text (message flow), jsonl or chrome (structured event log), spans (transaction spans), service (remote only: fleet request trace)")
		events   = flag.Int("events", 65536, "how many structured events to retain for jsonl/chrome export")
		url      = flag.String("url", "", "ftserve base URL: fetch the trace from a running fleet instead of simulating")
		id       = flag.String("id", "", "experiment ID to fetch (requires -url)")
		replay   = flag.String("replay", "", "replay the counterexample from this `ftcheck -interleave -json` document instead of simulating")
	)
	flag.Parse()
	if *url != "" || *id != "" {
		return fetchRemote(*url, *id, *format)
	}
	if *replay != "" {
		return replayCounterexample(*replay, *format)
	}
	switch *format {
	case "text", "jsonl", "chrome", "spans":
	case "service":
		return fmt.Errorf("format %q needs a running fleet: pass -url and -id", *format)
	default:
		return fmt.Errorf("unknown format %q (want text, jsonl, chrome or spans)", *format)
	}

	cfg := system.DefaultConfig()
	switch strings.ToLower(*protocol) {
	case "dircmp":
		cfg.Protocol = system.DirCMP
	case "ftdircmp":
		cfg.Protocol = system.FtDirCMP
	case "tokencmp":
		cfg.Protocol = system.TokenCMP
	case "fttokencmp":
		cfg.Protocol = system.FtTokenCMP
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	cfg.MeshWidth = *tiles
	cfg.MeshHeight = *tiles
	cfg.Mems = 2
	cfg.OpsPerCore = *ops
	cfg.Seed = *seed
	if *faults > 0 {
		cfg.Injector = fault.NewRate(*faults, *seed*101)
	}

	ring := trace.NewRing(*last)
	if *addr != 0 {
		ring.SetFilter(msg.Addr(*addr))
	}
	cfg.ExtraRecorder = ring
	var rec *obs.Recorder
	var spanEvents []obs.Event
	if *format != "text" {
		rec = obs.NewRecorder(*events)
		cfg.Obs = rec
	}
	if *format == "spans" {
		// Span reconstruction needs the per-message feed and the complete
		// stream, not just the retained ring.
		rec.EnableMessageFeed()
		rec.SetSink(func(e obs.Event) { spanEvents = append(spanEvents, e) })
	}

	s, err := system.New(cfg)
	if err != nil {
		return err
	}
	w, err := workload.ByName(*wname)
	if err != nil {
		return err
	}
	run, runErr := s.Run(w)

	topo := proto.Topology{Tiles: cfg.MeshWidth * cfg.MeshHeight, Mems: cfg.Mems, LineSize: cfg.Params.LineSize}
	if *format == "spans" {
		spans := span.Build(spanEvents, topo)
		if *addr != 0 {
			filtered := spans[:0]
			for _, s := range spans {
				if s.Addr == msg.Addr(*addr) {
					filtered = append(filtered, s)
				}
			}
			spans = filtered
		}
		if err := span.WriteJSONL(os.Stdout, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d cycles, %d messages, %d spans exported\n",
			run.Cycles, run.Net.TotalMessages(), len(spans))
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "run ended with:", runErr)
		}
		return nil
	}

	if *format != "text" {
		evs := rec.Events()
		if *addr != 0 {
			filtered := evs[:0]
			for _, e := range evs {
				if e.Addr == msg.Addr(*addr) {
					filtered = append(filtered, e)
				}
			}
			evs = filtered
		}
		var werr error
		switch *format {
		case "jsonl":
			werr = obs.WriteJSONL(os.Stdout, evs)
		case "chrome":
			werr = obs.WriteChromeTrace(os.Stdout, evs, nodeNamer(topo))
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "%d cycles, %d messages, %d events exported\n",
			run.Cycles, run.Net.TotalMessages(), len(evs))
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "run ended with:", runErr)
		}
		return nil
	}

	fmt.Print(ring.Dump())
	fmt.Printf("\n%d cycles, %d messages total", run.Cycles, run.Net.TotalMessages())
	if *addr != 0 {
		fmt.Printf(" (trace filtered to addr %#x)", *addr)
	}
	fmt.Println()
	if runErr != nil {
		fmt.Println("run ended with:", runErr)
		fmt.Print(s.DumpStuck())
	}
	return nil
}

// replayCounterexample re-executes the DirCMP counterexample recorded in an
// `ftcheck -interleave -json` document and exports the replay.
func replayCounterexample(path, format string) error {
	switch format {
	case "text", "jsonl", "chrome":
	default:
		return fmt.Errorf("format %q cannot render a counterexample replay (want text, jsonl or chrome)", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	doc, err := repro.ReadInterleaveDoc(f)
	f.Close()
	if err != nil {
		return err
	}
	tr, err := doc.ReplayCounterexampleTrace()
	if err != nil {
		return err
	}

	switch format {
	case "jsonl":
		if err := tr.WriteEventsJSONL(os.Stdout); err != nil {
			return err
		}
	case "chrome":
		if err := tr.WriteChromeTrace(os.Stdout); err != nil {
			return err
		}
	case "text":
		fmt.Printf("counterexample schedule (%s, workload %s, DirCMP):\n", path, doc.Workload)
		for i, a := range tr.Replay.Schedule {
			verb := "deliver"
			if a.Drop {
				verb = "drop   "
			}
			fmt.Printf("  %2d. %s %s\n", i+1, verb, a.Desc)
		}
		fmt.Printf("reached: %s at cycle %d, state %#x\n%s\n", tr.Replay.Kind, tr.Replay.Cycles, tr.Replay.StateHash, tr.Replay.Err)
	}
	fmt.Fprintf(os.Stderr, "replayed %d-action counterexample: %s at cycle %d (%d events)\n",
		len(tr.Replay.Schedule), tr.Replay.Kind, tr.Replay.Cycles, len(tr.Events()))
	return nil
}

// fetchRemote downloads an experiment's trace export from a running
// ftserve fleet and copies it to stdout. The server renders the document,
// so every server-side format works — including "service", which only
// exists fleet-side ("text" stays local-only).
func fetchRemote(url, id, format string) error {
	if url == "" || id == "" {
		return fmt.Errorf("remote fetch needs both -url and -id")
	}
	switch format {
	case "jsonl", "chrome", "spans", "service":
	case "text":
		return fmt.Errorf("format %q is local-only; remote fetch wants jsonl, chrome, spans or service", format)
	default:
		return fmt.Errorf("unknown format %q (want jsonl, chrome, spans or service)", format)
	}
	target := strings.TrimRight(url, "/") + "/v1/experiments/" + id + "/trace?format=" + format
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", target, resp.Status, strings.TrimSpace(string(body)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	return nil
}

// nodeNamer labels node tracks for the Chrome trace export.
func nodeNamer(topo proto.Topology) func(msg.NodeID) string {
	return func(id msg.NodeID) string {
		switch {
		case topo.IsL1(id):
			return fmt.Sprintf("L1.%d", topo.TileOf(id))
		case topo.IsL2(id):
			return fmt.Sprintf("L2.%d", topo.TileOf(id))
		case topo.IsMem(id):
			return fmt.Sprintf("Mem.%d", int(id)-2*topo.Tiles-1)
		}
		return fmt.Sprintf("node.%d", int(id))
	}
}

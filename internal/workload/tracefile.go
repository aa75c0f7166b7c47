package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Trace-driven workloads: instead of a synthetic kernel, replay a recorded
// per-core memory-access trace. The text format has one operation per
// line,
//
//	<core> <r|w> <line-index>
//
// with '#' comments and blank lines ignored. Line indexes are in cache-line
// units (the system maps them to addresses). Traces make the simulator
// usable with access patterns captured from real programs.

// traceWorkload replays parsed per-core operation lists. It implements
// Workload; the ops argument of Ops is ignored (the trace defines each
// core's length).
type traceWorkload struct {
	name    string
	perCore map[int][]Op
}

// Name implements Workload.
func (w *traceWorkload) Name() string { return w.name }

// Ops implements Workload.
func (w *traceWorkload) Ops(core, cores, ops int, rng *sim.RNG) []Op {
	return w.perCore[core]
}

// Cores returns the highest core index present in the trace plus one.
func (w *traceWorkload) Cores() int {
	max := -1
	for c := range w.perCore {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// TotalOps returns the total number of operations in the trace.
func (w *traceWorkload) TotalOps() int {
	total := 0
	for _, ops := range w.perCore {
		total += len(ops)
	}
	return total
}

// ParseTrace reads a trace and returns a workload replaying it. name is
// used in reports.
func ParseTrace(name string, r io.Reader) (*traceWorkload, error) {
	w := &traceWorkload{name: name, perCore: make(map[int][]Op)}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("workload: trace line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		core, err := strconv.Atoi(fields[0])
		if err != nil || core < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad core %q", lineNo, fields[0])
		}
		var write bool
		switch fields[1] {
		case "r", "R":
			write = false
		case "w", "W":
			write = true
		default:
			return nil, fmt.Errorf("workload: trace line %d: op must be r or w, got %q", lineNo, fields[1])
		}
		line, err := strconv.ParseUint(fields[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad line index %q", lineNo, fields[2])
		}
		w.perCore[core] = append(w.perCore[core], Op{Line: line, Write: write})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	if len(w.perCore) == 0 {
		return nil, fmt.Errorf("workload: trace contains no operations")
	}
	return w, nil
}

// WriteTrace materializes any workload into the trace format, so synthetic
// kernels can be exported, edited and replayed.
func WriteTrace(out io.Writer, w Workload, cores, ops int, seed uint64) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "# workload=%s cores=%d ops=%d seed=%d\n", w.Name(), cores, ops, seed)
	for core, list := range PerCore(w, cores, ops, seed) {
		for _, op := range list {
			kind := "r"
			if op.Write {
				kind = "w"
			}
			if _, err := fmt.Fprintf(bw, "%d %s %d\n", core, kind, op.Line); err != nil {
				return fmt.Errorf("workload: write trace: %w", err)
			}
		}
	}
	return bw.Flush()
}

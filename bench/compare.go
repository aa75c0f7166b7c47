package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compare: two sets of runs (JSONL files of reports, as -json appends
// them), one row per workload × metric. Each run contributes its median;
// a set's runs are paired with the other set's in file order.
//
// A row's verdict:
//   - "better" / "worse": b wins (or loses) at least 9 of every 10 of at
//     least ten pairs AND the medians differ by more than a's
//     interquartile range;
//   - "~": unresolved — the change is inside the noise;
//   - "=" / "DIFF" for exact metrics (deterministic counts), which must be
//     identical run for run: a set's runs at the same seeds, in the same
//     order, as the other's.
// The "bound" column says whether b's median is within the metric's
// regression bound of a's; the Mann–Whitney p-value is shown beside it.

// minPairs is the fewest paired runs that can resolve a change.
const minPairs = 10

// ReadReports reads a JSONL file of reports.
func ReadReports(path string) ([]*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rep Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &rep)
	}
	return out, sc.Err()
}

// CompareRow is one workload × metric comparison.
type CompareRow struct {
	Workload, Metric, Unit string
	A, B                   []float64 // per-run medians
	Verdict                string
	WithinBound            bool
	Bound                  float64
	P                      float64
	Wins, Pairs            int
}

// Compare builds the comparison rows of two run sets: every end-to-end
// metric of every workload both sets ran, and every exact per-layer
// metric traced runs reported.
func Compare(a, b []*Report) []CompareRow {
	type key struct{ workload, metric string }
	values := func(reps []*Report) map[key][]float64 {
		m := map[key][]float64{}
		for _, rep := range reps {
			for name, met := range rep.Metrics {
				if met.N > 0 {
					k := key{rep.Workload, name}
					m[k] = append(m[k], met.Value)
				}
			}
		}
		return m
	}
	va, vb := values(a), values(b)
	var rows []CompareRow
	for _, w := range Workloads() {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			xa, xb := va[key{w, d.name}], vb[key{w, d.name}]
			if len(xa) == 0 || len(xb) == 0 || (d.bound == 0 && !d.exact) {
				continue
			}
			rows = append(rows, compareMetric(w, d, xa, xb))
		}
	}
	return rows
}

func compareMetric(w string, d metricDef, xa, xb []float64) CompareRow {
	row := CompareRow{Workload: w, Metric: d.name, Unit: d.unit, A: xa, B: xb, Bound: d.bound, P: mannWhitney(xa, xb)}
	if d.exact {
		row.Verdict, row.WithinBound = "=", len(xa) == len(xb)
		for i := range xa {
			if !row.WithinBound || xa[i] != xb[i] {
				row.Verdict, row.WithinBound = "DIFF", false
			}
		}
		return row
	}
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	row.Pairs = min(len(xa), len(xb))
	losses := 0
	for i := 0; i < row.Pairs; i++ {
		switch {
		case better(xb[i], xa[i]):
			row.Wins++
		case better(xa[i], xb[i]):
			losses++
		}
	}
	sa := sorted(xa)
	ma, mb := quantile(sa, 0.5), median(xb)
	iqr := quantile(sa, 0.75) - quantile(sa, 0.25)
	resolved := math.Abs(mb-ma) > iqr
	switch {
	case resolved && row.Pairs >= minPairs && 10*row.Wins >= 9*row.Pairs:
		row.Verdict = "better"
	case resolved && row.Pairs >= minPairs && 10*losses >= 9*row.Pairs:
		row.Verdict = "worse"
	default:
		row.Verdict = "~"
	}
	worse := (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	row.WithinBound = ma != 0 && worse <= d.bound
	return row
}

// WriteCompare prints the rows as a table.
func WriteCompare(w io.Writer, rows []CompareRow) {
	fmt.Fprintf(w, "%-14s %-22s %-8s %28s %28s %8s %7s %6s %-7s %s\n",
		"workload", "metric", "unit", "a median [q1, q3] (n)", "b median [q1, q3] (n)", "delta", "p", "wins", "verdict", "bound")
	for _, r := range rows {
		sa, sb := sorted(r.A), sorted(r.B)
		cell := func(s []float64) string {
			return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), len(s))
		}
		delta := "-"
		if ma := quantile(sa, 0.5); ma != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(quantile(sb, 0.5)/ma-1))
		}
		wins, bound := "-", "exact"
		if r.Verdict != "=" && r.Verdict != "DIFF" {
			wins = fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		status := "ok"
		if !r.WithinBound {
			status = "EXCEEDED"
		}
		fmt.Fprintf(w, "%-14s %-22s %-8s %28s %28s %8s %7.3f %6s %-7s %s %s\n",
			r.Workload, r.Metric, r.Unit, cell(sa), cell(sb), delta, r.P, wins, r.Verdict, bound, status)
	}
}

// Package stats collects the quantities reported in the paper's evaluation:
// execution time in cycles, network traffic in messages and bytes broken
// down by message type and by the Figure 4 categories, cache miss latencies,
// and the fault-tolerance event counters (timeouts fired, requests
// reissued, stale responses discarded, messages lost).
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/msg"
)

// Network counts traffic. It implements the network's Recorder interface.
type Network struct {
	SentByType      []uint64
	BytesByType     []uint64
	DeliveredByType []uint64
	DroppedByType   []uint64
	LatencyHist     Histogram // end-to-end delivery latency, the one record of it
}

// NewNetwork returns empty network counters.
func NewNetwork() *Network {
	n := msg.NumTypes() + 1
	return &Network{
		SentByType:      make([]uint64, n),
		BytesByType:     make([]uint64, n),
		DeliveredByType: make([]uint64, n),
		DroppedByType:   make([]uint64, n),
	}
}

// reset zeroes every counter, keeping the per-type slices.
func (s *Network) reset() {
	clear(s.SentByType)
	clear(s.BytesByType)
	clear(s.DeliveredByType)
	clear(s.DroppedByType)
	s.LatencyHist = Histogram{}
}

// MessageSent implements noc.Recorder.
func (s *Network) MessageSent(m *msg.Message, bytes int) {
	s.SentByType[m.Type]++
	s.BytesByType[m.Type] += uint64(bytes)
}

// MessageDropped implements noc.Recorder.
func (s *Network) MessageDropped(m *msg.Message) {
	s.DroppedByType[m.Type]++
}

// MessageDelivered implements noc.Recorder.
func (s *Network) MessageDelivered(m *msg.Message, latency uint64) {
	s.DeliveredByType[m.Type]++
	s.LatencyHist.Add(latency)
}

// TotalMessages returns the number of injected messages.
func (s *Network) TotalMessages() uint64 {
	var total uint64
	for _, v := range s.SentByType {
		total += v
	}
	return total
}

// TotalBytes returns the number of injected bytes.
func (s *Network) TotalBytes() uint64 {
	var total uint64
	for _, v := range s.BytesByType {
		total += v
	}
	return total
}

// TotalDropped returns the number of messages lost to faults.
func (s *Network) TotalDropped() uint64 {
	var total uint64
	for _, v := range s.DroppedByType {
		total += v
	}
	return total
}

// MessagesByCategory groups injected message counts by Figure 4 category.
func (s *Network) MessagesByCategory() map[msg.Category]uint64 {
	out := make(map[msg.Category]uint64, msg.NumCategories())
	for _, t := range msg.AllTypes() {
		out[msg.CategoryOf(t)] += s.SentByType[t]
	}
	return out
}

// BytesByCategory groups injected byte counts by Figure 4 category.
func (s *Network) BytesByCategory() map[msg.Category]uint64 {
	out := make(map[msg.Category]uint64, msg.NumCategories())
	for _, t := range msg.AllTypes() {
		out[msg.CategoryOf(t)] += s.BytesByType[t]
	}
	return out
}

// AvgLatency returns the mean end-to-end delivery latency in cycles.
func (s *Network) AvgLatency() float64 { return s.LatencyHist.Mean() }

// Protocol counts coherence-protocol events, including the fault-tolerance
// machinery.
type Protocol struct {
	ReadHits    uint64
	WriteHits   uint64
	ReadMisses  uint64
	WriteMisses uint64

	MissLatencyHist Histogram // L1 miss latency, the one record of it

	Writebacks            uint64
	L2Misses              uint64
	L2Recalls             uint64
	CacheToCacheTransfers uint64
	MigratoryGrants       uint64

	// Fault-tolerance events (all zero for DirCMP).
	LostRequestTimeouts uint64
	LostUnblockTimeouts uint64
	LostAckBDTimeouts   uint64
	BackupTimeouts      uint64
	RequestsReissued    uint64
	StaleSNDiscarded    uint64
	AcksOSent           uint64
	PiggybackedAcksO    uint64
	FalsePositives      uint64

	// Token-protocol events (TokenCMP/FtTokenCMP only).
	TokenRetries       uint64
	PersistentRequests uint64
	TokenRecreations   uint64
	TokenSerialPeak    uint64
}

// MissLatency records one completed miss.
func (p *Protocol) MissLatency(cycles uint64) { p.MissLatencyHist.Add(cycles) }

// AvgMissLatency returns the mean L1 miss latency in cycles.
func (p *Protocol) AvgMissLatency() float64 { return p.MissLatencyHist.Mean() }

// Run aggregates everything measured in one simulation.
type Run struct {
	Protocol string
	Workload string
	Cycles   uint64
	Ops      uint64
	Net      *Network
	Proto    *Protocol
}

// NewRun returns an empty result shell.
func NewRun(protocol, workload string) *Run {
	r := &Run{
		Protocol: protocol,
		Net:      NewNetwork(),
		Proto:    &Protocol{},
	}
	r.Reset()
	r.Workload = workload
	return r
}

// Reset returns the run to the state NewRun(r.Protocol, "") leaves it
// in: no workload name and every counter zero. The counter storage is
// kept, so Net and Proto stay the same pointers.
func (r *Run) Reset() {
	r.Workload = ""
	r.Cycles, r.Ops = 0, 0
	r.Net.reset()
	*r.Proto = Protocol{}
}

// RunSnapshot holds a Run's counters for Restore. The zero value is an
// empty buffer; Snapshot reuses its storage.
type RunSnapshot struct {
	workload    string
	cycles, ops uint64
	net         Network
	proto       Protocol
}

// Snapshot copies the run's name, cycle and operation counts and every
// counter into s.
func (r *Run) Snapshot(s *RunSnapshot) {
	s.workload, s.cycles, s.ops = r.Workload, r.Cycles, r.Ops
	n := r.Net
	s.net.SentByType = append(s.net.SentByType[:0], n.SentByType...)
	s.net.BytesByType = append(s.net.BytesByType[:0], n.BytesByType...)
	s.net.DeliveredByType = append(s.net.DeliveredByType[:0], n.DeliveredByType...)
	s.net.DroppedByType = append(s.net.DroppedByType[:0], n.DroppedByType...)
	s.net.LatencyHist = n.LatencyHist
	s.proto = *r.Proto
}

// Restore returns the run to snapshot s, taken from it. Net and Proto stay
// the same pointers.
func (r *Run) Restore(s *RunSnapshot) {
	r.Workload, r.Cycles, r.Ops = s.workload, s.cycles, s.ops
	n := r.Net
	copy(n.SentByType, s.net.SentByType)
	copy(n.BytesByType, s.net.BytesByType)
	copy(n.DeliveredByType, s.net.DeliveredByType)
	copy(n.DroppedByType, s.net.DroppedByType)
	n.LatencyHist = s.net.LatencyHist
	*r.Proto = s.proto
}

// MessageOverhead returns the relative increase in messages vs a baseline
// run (1.30 means 30% more messages), the Figure 4 left axis.
func (r *Run) MessageOverhead(base *Run) float64 {
	b := base.Net.TotalMessages()
	if b == 0 {
		return 0
	}
	return float64(r.Net.TotalMessages()) / float64(b)
}

// ByteOverhead returns the relative increase in bytes vs a baseline run,
// the Figure 4 right axis.
func (r *Run) ByteOverhead(base *Run) float64 {
	b := base.Net.TotalBytes()
	if b == 0 {
		return 0
	}
	return float64(r.Net.TotalBytes()) / float64(b)
}

// TimeOverhead returns execution time normalized to a baseline run, the
// Figure 3 vertical axis.
func (r *Run) TimeOverhead(base *Run) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// Report renders a human-readable summary.
func (r *Run) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol=%s workload=%s\n", r.Protocol, r.Workload)
	fmt.Fprintf(&b, "  execution: %d cycles, %d ops (%.2f cycles/op)\n",
		r.Cycles, r.Ops, safeDiv(float64(r.Cycles), float64(r.Ops)))
	p := r.Proto
	fmt.Fprintf(&b, "  L1: %d read hits, %d write hits, %d read misses, %d write misses\n",
		p.ReadHits, p.WriteHits, p.ReadMisses, p.WriteMisses)
	fmt.Fprintf(&b, "  misses: avg latency %.1f cycles (max %d), %d cache-to-cache, %d migratory grants\n",
		p.AvgMissLatency(), p.MissLatencyHist.Max(), p.CacheToCacheTransfers, p.MigratoryGrants)
	if p.MissLatencyHist.Count() > 0 {
		fmt.Fprintf(&b, "  miss latency distribution: %s\n", p.MissLatencyHist.String())
	}
	fmt.Fprintf(&b, "  L2: %d misses, %d recalls; %d writebacks\n", p.L2Misses, p.L2Recalls, p.Writebacks)
	n := r.Net
	fmt.Fprintf(&b, "  network: %d messages, %d bytes, %d dropped, avg latency %.1f cycles\n",
		n.TotalMessages(), n.TotalBytes(), n.TotalDropped(), n.AvgLatency())
	cats := n.MessagesByCategory()
	bytesCats := n.BytesByCategory()
	keys := make([]msg.Category, 0, len(cats))
	for c := range cats {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, c := range keys {
		if cats[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-10s %10d msgs %12d bytes\n", c, cats[c], bytesCats[c])
	}
	if p.LostRequestTimeouts+p.LostUnblockTimeouts+p.LostAckBDTimeouts+p.BackupTimeouts+p.RequestsReissued > 0 ||
		p.AcksOSent > 0 {
		fmt.Fprintf(&b, "  fault tolerance: %d AckO (%d piggybacked)\n", p.AcksOSent, p.PiggybackedAcksO)
		fmt.Fprintf(&b, "    timeouts: %d lost-request, %d lost-unblock, %d lost-AckBD, %d backup\n",
			p.LostRequestTimeouts, p.LostUnblockTimeouts, p.LostAckBDTimeouts, p.BackupTimeouts)
		fmt.Fprintf(&b, "    recovery: %d reissues, %d stale responses discarded, %d false positives\n",
			p.RequestsReissued, p.StaleSNDiscarded, p.FalsePositives)
	}
	if p.TokenRetries+p.PersistentRequests+p.TokenRecreations > 0 {
		fmt.Fprintf(&b, "  token protocol: %d retries, %d persistent requests, %d recreations, serial table peak %d\n",
			p.TokenRetries, p.PersistentRequests, p.TokenRecreations, p.TokenSerialPeak)
	}
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

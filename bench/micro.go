package bench

import (
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// Microbenchmarks: one per layer operation the simulator's hot paths and
// set-up are made of. Each sizes a batch of calls to about 10 ms, then
// times microSamples batches; the metric is the median time per call with
// every batch kept as a sample. They run at the end of every traced run,
// whatever its workload.

const microSamples = 8

// microDef is one microbenchmark: a metric and a constructor returning
// the operation to time (set-up excluded from the timing).
type microDef struct {
	metric string
	build  func() (func(), error)
}

var micros = []microDef{
	{"sim.dispatch_ns", microDispatch},
	{"noc.send_ns.mesh", func() (func(), error) { return microSend(false) }},
	{"noc.send_ns.detailed", func() (func(), error) { return microSend(true) }},
	{"core.l1_hit_ns", func() (func(), error) { return microL1(true) }},
	{"core.l1_miss_ns", func() (func(), error) { return microL1(false) }},
	{"cache.lookup_ns", microLookup},
	{"cache.new_array_us", microNewArray},
	{"msg.encode_ns", microEncode},
	{"msg.decode_ns", microDecode},
	{"msg.fingerprint_ns", microFingerprint},
	{"obs.emit_ns", microEmit},
	{"system.new_us.quick", func() (func(), error) { return microSystemNew(true) }},
	{"system.new_us.table4", func() (func(), error) { return microSystemNew(false) }},
	{"system.check_line_ns", microCheckLine},
	{"system.state_fingerprint_us", microFingerprintSystem},
	{"system.memory_image_hash_us", microMemoryImageHash},
	{"canon.hash_us", microCanonHash},
}

// runMicro runs every microbenchmark and records its samples in the unit
// its metric declares.
func runMicro(r *run) error {
	target := 10 * time.Millisecond
	if r.opts.Tiny {
		target = time.Millisecond
	}
	root, end := r.tr.start("microbenchmarks", 0, 1)
	defer end()
	for _, m := range micros {
		_, endM := r.tr.start(m.metric, root, 1)
		op, err := m.build()
		if err != nil {
			return fmt.Errorf("%s: %w", m.metric, err)
		}
		ns := timeOp(op, target)
		endM()
		d, _ := lookupDef(m.metric)
		scale := 1.0
		if d.unit == "us" {
			scale = 1e-3
		}
		for i := range ns {
			ns[i] *= scale
		}
		r.samples(m.metric, ns)
	}
	return nil
}

// timeOp returns microSamples measurements of op's time per call in ns.
// The batch size grows until one batch takes about target; the sizing
// batches warm the operation up.
func timeOp(op func(), target time.Duration) []float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0)
	}
	n := 1
	for {
		d := batch(n)
		if d >= target/2 || n >= 1<<24 {
			break
		}
		grow := 100
		if d > 0 {
			grow = min(100, int(float64(target)/float64(d))+1)
		}
		n *= grow
	}
	out := make([]float64, microSamples)
	for i := range out {
		out[i] = float64(batch(n).Nanoseconds()) / float64(n)
	}
	return out
}

// microDispatch: schedule one event and execute it.
func microDispatch() (func(), error) {
	e := sim.NewEngine()
	fn := func(any, uint64) {}
	return func() {
		e.ScheduleCall(1, fn, nil, 0)
		e.Step()
	}, nil
}

// microSend: one control message across the Table-4 mesh between random
// tiles, delivery included (the engine drains every 256 sends).
func microSend(detailed bool) (func(), error) {
	e := sim.NewEngine()
	cfg := system.DefaultConfig().Net
	cfg.Width, cfg.Height = 4, 4
	if detailed {
		cfg.DetailedRouters, cfg.BufferFlits = true, 16
	}
	n, err := noc.New(e, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	for t := 0; t < 16; t++ {
		// The network recycles each message after its handler returns.
		if err := n.Attach(msg.NodeID(t+1), t, func(*msg.Message) {}); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRNG(1)
	sent := 0
	return func() {
		m := msg.NewMessage()
		m.Type, m.Src, m.Dst, m.Addr = msg.GetS, msg.NodeID(rng.Intn(16)+1), msg.NodeID(rng.Intn(16)+1), msg.Addr(sent*64)
		n.Send(m)
		if sent++; sent%256 == 0 {
			e.Run(0)
		}
	}, nil
}

// microL1: one read through an L1 port of the quick FtDirCMP system until
// it commits — of a line the L1 holds (hit), or of a line never touched
// before (a miss to memory, with the replacements a full cache makes).
func microL1(hit bool) (func(), error) {
	s, err := system.New(sysConfig(true, repro.FtDirCMP, 1, 1))
	if err != nil {
		return nil, err
	}
	port, e := s.Ports()[0], s.Engine()
	done := false
	cb := func(proto.AccessResult) { done = true }
	until := func() bool { return done }
	access := func(addr msg.Addr) {
		done = false
		port.Read(addr, cb)
		e.RunUntil(1<<62, until)
	}
	if hit {
		access(0x40)
		return func() { access(0x40) }, nil
	}
	line := 0
	return func() {
		line++
		access(msg.Addr(line%(1<<20)) * 64)
	}, nil
}

// microLookup: a hit in a full L1-geometry (32 KB, 4-way) array.
func microLookup() (func(), error) {
	a, err := cache.NewArray(32*1024, 4, 64)
	if err != nil {
		return nil, err
	}
	const lines = 512
	for i := 0; i < lines; i++ {
		addr := msg.Addr(i * 64)
		a.Victim(addr, nil).Reset(addr)
	}
	i := 0
	return func() {
		i++
		a.Lookup(msg.Addr(i%lines) * 64)
	}, nil
}

// microNewArray: allocate one L2 bank array (512 KB, 8-way).
func microNewArray() (func(), error) {
	return func() { cache.NewArray(512*1024, 8, 64) }, nil
}

func sampleMessage() *msg.Message {
	return &msg.Message{Type: msg.DataEx, Src: 1, Dst: 6, Addr: 0x2a40, TID: msg.MakeTID(1, 1), AckCount: 2}
}

// microEncode: serialize one data message.
func microEncode() (func(), error) {
	m := sampleMessage()
	var buf []byte
	return func() { buf = msg.EncodeAppend(buf[:0], m) }, nil
}

// microDecode: parse and CRC-check one data message.
func microDecode() (func(), error) {
	buf := msg.Encode(sampleMessage())
	if _, ok := msg.Decode(buf); !ok {
		return nil, fmt.Errorf("sample message does not decode")
	}
	return func() { msg.Decode(buf) }, nil
}

// microFingerprint: the model checker's canonical message hash.
func microFingerprint() (func(), error) {
	m := sampleMessage()
	return func() { msg.Fingerprint(m) }, nil
}

// microEmit: one round of the hot-path observability hooks (message sent,
// state change, transaction end) on a metrics-only recorder.
func microEmit() (func(), error) {
	rec := obs.NewRecorder(0)
	m := sampleMessage()
	return func() {
		rec.MessageSent(m, 72)
		rec.StateChange("l1", 1, m.Addr, m.TID, "I", "M")
		rec.TransactionEnd("l1", 1, m.Addr, m.TID)
	}, nil
}

// microSystemNew: build a quick or Table-4 FtDirCMP system.
func microSystemNew(quick bool) (func(), error) {
	cfg := sysConfig(quick, repro.FtDirCMP, 2000, 1)
	if _, err := system.New(cfg); err != nil {
		return nil, err
	}
	return func() { system.New(cfg) }, nil
}

// finishedSystem is a quick FtDirCMP system that has run 200 ops/core of
// the uniform workload, and the addresses its memory image holds.
func finishedSystem() (*system.System, []msg.Addr, error) {
	s, err := system.New(sysConfig(true, repro.FtDirCMP, 200, 1))
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.ByName("uniform")
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.Run(w); err != nil {
		return nil, nil, err
	}
	var addrs []msg.Addr
	for a := range s.MemoryImage() {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return s, addrs, nil
}

// microCheckLine: the coherence invariant check of one line.
func microCheckLine() (func(), error) {
	s, addrs, err := finishedSystem()
	if err != nil {
		return nil, err
	}
	i := 0
	return func() {
		i++
		s.CheckLine(addrs[i%len(addrs)])
	}, nil
}

// microFingerprintSystem: the model checker's whole-state fingerprint.
func microFingerprintSystem() (func(), error) {
	s, _, err := finishedSystem()
	if err != nil {
		return nil, err
	}
	return func() { s.StateFingerprint() }, nil
}

// microMemoryImageHash: the final-memory-image hash every verdict uses.
func microMemoryImageHash() (func(), error) {
	s, _, err := finishedSystem()
	if err != nil {
		return nil, err
	}
	return func() { s.MemoryImageHash() }, nil
}

// microCanonHash: the content address of a resolved quick run request,
// shaped like internal/serve's cache key input.
func microCanonHash() (func(), error) {
	key := struct {
		Type     string       `json:"type"`
		Workload string       `json:"workload"`
		Config   repro.Config `json:"config"`
	}{"run", "uniform", repro.QuickConfig()}
	if _, err := canon.Hash(key); err != nil {
		return nil, err
	}
	return func() { canon.Hash(key) }, nil
}

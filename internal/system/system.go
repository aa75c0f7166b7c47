// Package system assembles a complete tiled-CMP simulation: cores, L1s, L2
// banks and memory controllers attached to the mesh, running the DirCMP
// baseline or the FtDirCMP fault-tolerant protocol (both on the
// internal/core controllers, DirCMP with the four mechanisms off) or one of
// the token protocols, with fault injection, a data-integrity oracle and a
// coherence invariant checker.
package system

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/workload"
)

// multiRecorder fans network events out to several recorders.
type multiRecorder []noc.Recorder

func (m multiRecorder) MessageSent(msgp *msg.Message, bytes int) {
	for _, r := range m {
		r.MessageSent(msgp, bytes)
	}
}

func (m multiRecorder) MessageDropped(msgp *msg.Message) {
	for _, r := range m {
		r.MessageDropped(msgp)
	}
}

func (m multiRecorder) MessageDelivered(msgp *msg.Message, latency uint64) {
	for _, r := range m {
		r.MessageDelivered(msgp, latency)
	}
}

// Protocol selects the coherence protocol.
type Protocol int

const (
	// DirCMP is the non-fault-tolerant baseline (§2 of the paper).
	DirCMP Protocol = iota + 1
	// FtDirCMP is the paper's fault-tolerant protocol (§3).
	FtDirCMP
	// TokenCMP is the token-coherence baseline of the authors' previous
	// work, implemented for the paper's §5 comparison.
	TokenCMP
	// FtTokenCMP is its fault-tolerant extension (token serial numbers and
	// the token recreation process).
	FtTokenCMP
)

func (p Protocol) String() string {
	switch p {
	case DirCMP:
		return "DirCMP"
	case FtDirCMP:
		return "FtDirCMP"
	case TokenCMP:
		return "TokenCMP"
	case FtTokenCMP:
		return "FtTokenCMP"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Valid reports whether p is one of the four protocols.
func (p Protocol) Valid() bool { return p >= DirCMP && p <= FtTokenCMP }

// tokenBased reports whether p is one of the token-coherence protocols.
func (p Protocol) tokenBased() bool { return p == TokenCMP || p == FtTokenCMP }

// Errors reported by Run.
var (
	// ErrDeadlock: the simulation ran out of events before every core
	// finished — a lost message stalled the protocol (the fate of DirCMP
	// under any fault).
	ErrDeadlock = errors.New("system: deadlock — event queue drained with cores still blocked")
	// ErrCycleLimit: the cycle limit elapsed before completion.
	ErrCycleLimit = errors.New("system: cycle limit exceeded")
	// ErrCancelled: Config.Cancel became readable mid-run (a context
	// deadline, client disconnect or SIGINT aborted the simulation).
	ErrCancelled = errors.New("system: run cancelled")
)

// Config describes a simulation.
type Config struct {
	Protocol Protocol
	// MeshWidth*MeshHeight tiles, one core+L1+L2 bank each.
	MeshWidth, MeshHeight int
	// Mems memory controllers, line-interleaved.
	Mems int

	Params proto.Params
	Net    noc.Config

	// Injector may be nil (reliable network).
	Injector fault.Injector

	// Workload shape.
	OpsPerCore int
	ThinkTime  uint64
	Seed       uint64

	// Limit bounds the simulation length (cycles); 0 means the default.
	Limit uint64

	// CheckIntegrity enables the data-value oracle (default on via
	// DefaultConfig; costs some memory).
	CheckIntegrity bool

	// Obs, when non-nil, receives structured protocol events (state
	// transitions, timeout firings, reissues, backup lifecycle, fault
	// injections) and derives the recovery metrics; see internal/obs.
	Obs *obs.Recorder

	// ExtraRecorder, when non-nil, is fanned network events alongside the
	// statistics and obs recorders. Only the model checker's replay sets
	// it, to render the messages a counterexample delivers or loses (see
	// internal/mc); the in-flight message multiset is kept by the network
	// itself, and a message log is an Obs recorder with the message feed
	// on (see obs.WireLog).
	ExtraRecorder noc.Recorder

	// Cancel, when non-nil, aborts the simulation when it becomes
	// readable: Run polls it every few thousand events and returns
	// ErrCancelled. This is how context cancellation (server deadlines,
	// SIGINT) reaches the event loop without a per-event cost. Determinism
	// is unaffected — a cancelled run returns an error, never a result.
	Cancel <-chan struct{}
}

// Tiles returns the tile count.
func (c Config) Tiles() int { return c.MeshWidth * c.MeshHeight }

// DefaultConfig returns the paper's Table 4 configuration: a 16-way tiled
// CMP (4x4 mesh), 64-byte lines, 32KB/4-way L1s, 512KB/8-way L2 banks,
// 4 memory controllers, 8/72-byte messages, and the fault-tolerance
// parameters described in §3.6/§4.1.
func DefaultConfig() Config {
	return Config{
		Protocol:   FtDirCMP,
		MeshWidth:  4,
		MeshHeight: 4,
		Mems:       4,
		Params: proto.Params{
			LineSize:           64,
			L1Size:             32 * 1024,
			L1Ways:             4,
			L2Size:             512 * 1024,
			L2Ways:             8,
			L1HitLatency:       3,
			L2HitLatency:       15,
			MemLatency:         160,
			MSHRs:              0,
			MigratoryOpt:       true,
			SerialBits:         8,
			LostRequestTimeout: 2000,
			LostUnblockTimeout: 3000,
			LostAckBDTimeout:   3000,
			BackupTimeout:      4000,
		},
		Net: noc.Config{
			HopLatency:   4,
			LocalLatency: 1,
			FlitBytes:    16,
			ControlSize:  8,
			DataSize:     72,
		},
		OpsPerCore:     2000,
		ThinkTime:      4,
		Seed:           1,
		Limit:          200_000_000,
		CheckIntegrity: true,
	}
}

// agent is what the system needs of every protocol controller: its line
// views (checkers, fingerprints), its idleness (the post-drain sanity
// check and the deadlock dump) and its Reset.
type agent interface {
	proto.Inspectable
	Quiesced() bool
	Reset()
	// Snapshot and Restore copy what Reset returns to its initial value
	// into the agent's own buffer and back (see System.Snapshot).
	Snapshot()
	Restore()
}

// System is a fully assembled simulation.
type System struct {
	cfg    Config
	topo   proto.Topology
	engine *sim.Engine
	net    *noc.Network
	run    *stats.Run

	ports     []proto.L1Port
	cores     []*Core
	agents    []agent
	store     *memctrl.Store
	integrity *Integrity

	// finished counts the cores that are done (see Core.Done), so AllDone,
	// Run's stop predicate, needs no scan of the cores.
	finished int

	// midRunErrs collects post-recovery invariant violations caught by the
	// recovery probe (capped at maxMidRunErrs).
	midRunErrs []error

	// Structural-fault state (tile death / link death); see recovery.go.
	// domains is non-nil only for FtDirCMP runs with an armed TileDeath;
	// deadNodes is the ground-truth dead set for any protocol.
	domains       *proto.Domains
	deadTile      int
	deadNodes     map[msg.NodeID]bool
	probeOff      bool
	reconstructed bool
	recovery      RecoveryReport

	// Typed directory-protocol controller handles, used only by the
	// FtDirCMP reconstruction flush.
	l1s     []*core.L1
	l2s     []*core.L2
	memByID map[msg.NodeID]*core.Mem

	// Per-line accumulators bound once by New, so fingerprinting builds no
	// closure per agent: imageLine appends an owner view to image (reused
	// scratch, see memoryImage); fpLine adds one line's hash to fpSum and,
	// while fpImage is set (the agent is alive), does what imageLine does,
	// so StateFingerprint walks every line once.
	fpSum     uint64
	fpImage   bool
	fpLine    func(proto.LineView)
	image     []imageEntry
	imageLine func(proto.LineView)

	// views and groups are CheckCoherence's reused scratch; viewLine
	// appends one view of agent viewNode to views.
	views    []agentView
	groups   lineGroups
	viewNode int32
	viewLine func(proto.LineView)

	// lineViews is CheckLine's reused scratch; lineView, bound by the
	// first CheckLine (a fault-free run never checks a line mid-run),
	// appends one view of agent viewNode to it if the view is of line
	// lineAddr.
	lineViews []agentView
	lineAddr  msg.Addr
	lineView  func(proto.LineView)

	// snap is the system's share of its snapshot, built by the first
	// Snapshot; nil or not taken, there is nothing to restore
	// (snapshot.go).
	snap *snapshot
}

// imageEntry is one owner view of a line: its address and version.
type imageEntry struct {
	addr    msg.Addr
	version uint64
}

// maxMidRunErrs caps the mid-run violation log; a broken protocol can fail
// the same check on every recovery.
const maxMidRunErrs = 16

// New builds a system from the configuration.
func New(cfg Config) (*System, error) {
	if cfg.Tiles() < 1 || cfg.Mems < 1 {
		return nil, fmt.Errorf("system: invalid topology %dx%d tiles, %d mems",
			cfg.MeshWidth, cfg.MeshHeight, cfg.Mems)
	}
	if cfg.OpsPerCore < 0 {
		return nil, fmt.Errorf("system: negative operations per core %d", cfg.OpsPerCore)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	cfg.Net.Width = cfg.MeshWidth
	cfg.Net.Height = cfg.MeshHeight
	if cfg.Limit == 0 {
		cfg.Limit = 200_000_000
	}

	topo := proto.Topology{Tiles: cfg.Tiles(), Mems: cfg.Mems, LineSize: cfg.Params.LineSize}
	engine := sim.NewEngine()
	run := stats.NewRun(cfg.Protocol.String(), "")

	var drop noc.DropFunc
	if cfg.Injector != nil {
		drop = cfg.Injector.Drop
	}
	var recorder noc.Recorder = run.Net
	if cfg.Obs != nil || cfg.ExtraRecorder != nil {
		mr := multiRecorder{run.Net}
		if cfg.Obs != nil {
			mr = append(mr, cfg.Obs)
		}
		if cfg.ExtraRecorder != nil {
			mr = append(mr, cfg.ExtraRecorder)
		}
		recorder = mr
	}
	if cfg.Obs != nil {
		cfg.Obs.SetClock(engine.Now)
	}
	net, err := noc.New(engine, cfg.Net, drop, recorder)
	if err != nil {
		return nil, err
	}

	tiles := cfg.Tiles()
	agents := 2 * tiles
	if !cfg.Protocol.tokenBased() {
		agents += cfg.Mems
	}
	s := &System{
		cfg:    cfg,
		topo:   topo,
		engine: engine,
		net:    net,
		run:    run,
		ports:  make([]proto.L1Port, 0, tiles),
		agents: make([]agent, 0, agents),
		store:  memctrl.NewStore(),
	}
	s.fpLine = func(v proto.LineView) {
		s.fpSum += lineFingerprint(v)
		if v.Owner && s.fpImage {
			s.image = append(s.image, imageEntry{v.Addr, v.Payload.Version})
		}
	}
	s.imageLine = func(v proto.LineView) {
		if v.Owner {
			s.image = append(s.image, imageEntry{v.Addr, v.Payload.Version})
		}
	}
	s.viewLine = func(v proto.LineView) {
		s.views = append(s.views, viewOf(s.viewNode, v))
	}
	if cfg.CheckIntegrity {
		s.integrity = NewIntegrity(tiles, tiles*cfg.OpsPerCore)
	}

	var onWrite proto.WriteObserver
	if s.integrity != nil {
		onWrite = s.integrity.OnWriteCommit
	}

	switch cfg.Protocol {
	case DirCMP, FtDirCMP:
		ft := cfg.Protocol == FtDirCMP
		s.l1s = make([]*core.L1, 0, tiles)
		s.l2s = make([]*core.L2, 0, tiles)
		for i := 0; i < tiles; i++ {
			l1, err := core.NewL1(topo.L1(i), topo, cfg.Params, engine, net, run, onWrite, ft)
			if err != nil {
				return nil, err
			}
			l2, err := core.NewL2(topo.L2(i), topo, cfg.Params, engine, net, run, ft)
			if err != nil {
				return nil, err
			}
			if err := attach(net, l1.NodeID(), i, l1.Handle); err != nil {
				return nil, err
			}
			if err := attach(net, l2.NodeID(), i, l2.Handle); err != nil {
				return nil, err
			}
			s.ports = append(s.ports, l1)
			s.agents = append(s.agents, l1, l2)
			s.l1s = append(s.l1s, l1)
			s.l2s = append(s.l2s, l2)
		}
		s.memByID = make(map[msg.NodeID]*core.Mem, cfg.Mems)
		for i := 0; i < cfg.Mems; i++ {
			mc := core.NewMem(topo.Mem(i), topo, cfg.Params, engine, net, run, s.store, ft)
			if err := attach(net, mc.NodeID(), memRouter(cfg, i), mc.Handle); err != nil {
				return nil, err
			}
			s.agents = append(s.agents, mc)
			s.memByID[mc.NodeID()] = mc
		}
	case TokenCMP, FtTokenCMP:
		ft := cfg.Protocol == FtTokenCMP
		for i := 0; i < tiles; i++ {
			l1, err := token.NewL1(topo.L1(i), topo, cfg.Params, engine, net, run, onWrite, ft)
			if err != nil {
				return nil, err
			}
			home := token.NewHome(topo.L2(i), topo, cfg.Params, engine, net, run, ft)
			if err := attach(net, l1.NodeID(), i, l1.Handle); err != nil {
				return nil, err
			}
			if err := attach(net, home.NodeID(), i, home.Handle); err != nil {
				return nil, err
			}
			s.ports = append(s.ports, l1)
			s.agents = append(s.agents, l1, home)
		}
		// Token protocols have no separate memory controllers: the home
		// nodes are the memory-side token holders (see internal/token).
	default:
		return nil, fmt.Errorf("system: unknown protocol %v", cfg.Protocol)
	}
	td, lds, err := s.structuralFaults(cfg.Injector)
	if err != nil {
		return nil, err
	}
	s.reset()
	s.armStructural(td, lds)
	if cfg.Obs != nil {
		for _, a := range s.agents {
			if o, ok := a.(interface{ SetObserver(*obs.Recorder) }); ok {
				o.SetObserver(cfg.Obs)
			}
		}
		// Mid-run invariant checking: the moment a recovery window closes,
		// re-verify the recovered line. CheckLine skips transient lines, so
		// this only fires on lines that have genuinely settled; a fault that
		// corrupted the line is then caught at the recovery point rather
		// than at the end of the run.
		if cfg.CheckIntegrity {
			cfg.Obs.SetRecoveryProbe(func(addr msg.Addr) {
				// Once a tile has died, mid-run line checks would see the
				// dead tile's frozen state; the structural verdict instead
				// rests on the end-of-run survivor checks.
				if s.probeOff || len(s.midRunErrs) >= maxMidRunErrs {
					return
				}
				if err := s.CheckLine(addr); err != nil {
					s.midRunErrs = append(s.midRunErrs,
						fmt.Errorf("cycle %d: post-recovery check: %w", s.engine.Now(), err))
				}
			})
		}
	}
	return s, nil
}

// Reset returns the system to exactly the state New(cfg) left it in, with
// the same cfg except that next is the injector of the coming run (nil for
// a reliable network), so the next Begin or Run behaves as on a fresh
// system built with next. It keeps what earlier runs allocated — table
// entries, cache frames, the event slab, network traversal state, map
// storage, cores and the Obs recorder's event ring — so a reset system
// runs with far fewer allocations than a new one. The Obs recorder is
// reset in place and stays wired to the system; cfg.ExtraRecorder belongs
// to the caller and is not reset.
//
// next may be any injector New takes, a tile or link death (also inside a
// Chain) included: Reset forgets the built injector's structural wiring
// and arms next's as New does. An injector New would refuse, Reset refuses
// with New's error, and leaves the system as it was.
func (s *System) Reset(next fault.Injector) error {
	td, lds, err := s.structuralFaults(next)
	if err != nil {
		return err
	}
	s.cfg.Injector = next
	var drop noc.DropFunc
	if next != nil {
		drop = next.Drop
	}
	s.net.SetDrop(drop)
	s.reset()
	s.armStructural(td, lds)
	s.cfg.Obs.Reset()
	return nil
}

// reset is the one definition of the state New leaves a system in, before
// armStructural wires in the injector's structural faults; New calls it
// once everything is built, and Reset calls it again. The
// controllers go first: their table hooks stop timers, which tells the
// engine about the firings the engine reset then discards. The network
// goes before the engine too: it reclaims the in-flight messages whose
// delivery events the engine reset discards.
func (s *System) reset() {
	for _, a := range s.agents {
		a.Reset()
	}
	s.store.Reset()
	if s.integrity != nil {
		s.integrity.Reset()
	}
	s.run.Reset()
	s.net.Reset()
	s.engine.Reset()
	s.cores = s.cores[:0] // kept for Begin to rebind
	s.finished = 0
	s.midRunErrs = nil
	if s.domains != nil {
		s.setDomains(nil)
	}
	s.deadTile, s.deadNodes = 0, nil
	s.probeOff, s.reconstructed = false, false
	s.recovery = RecoveryReport{}
	s.fpSum = 0
	s.image = s.image[:0]
	s.views = s.views[:0]
	s.lineViews = s.lineViews[:0]
	if s.snap != nil {
		s.snap.taken = false
	}
}

// Obs returns the event recorder the system was built with (nil if none).
func (s *System) Obs() *obs.Recorder { return s.cfg.Obs }

func attach(net *noc.Network, id msg.NodeID, router int, h noc.Handler) error {
	if err := net.Attach(id, router, h); err != nil {
		return fmt.Errorf("system: attach node %d: %w", id, err)
	}
	return nil
}

// memRouter spreads the memory controllers across the mesh corners/edges.
func memRouter(cfg Config, i int) int {
	w, h := cfg.MeshWidth, cfg.MeshHeight
	corners := []int{0, w - 1, (h - 1) * w, h*w - 1}
	return corners[i%len(corners)]
}

// Engine exposes the simulation clock (for tests and tools).
func (s *System) Engine() *sim.Engine { return s.engine }

// Network exposes the interconnect; the model checker reads its in-flight
// message multiset (noc.Network.InFlight).
func (s *System) Network() *noc.Network { return s.net }

// Stats exposes the run statistics.
func (s *System) Stats() *stats.Run { return s.run }

// Ports exposes the CPU-side L1 interfaces (for scripted tests).
func (s *System) Ports() []proto.L1Port { return s.ports }

// Integrity exposes the data oracle (nil when disabled).
func (s *System) Integrity() *Integrity { return s.integrity }

// Run executes the workload to completion on every core. It returns the
// collected statistics and a nil error on success; ErrDeadlock when a core
// can never finish (the DirCMP-under-faults outcome); ErrCycleLimit when the
// limit elapsed. Coherence and data-integrity violations are returned as
// errors as well.
func (s *System) Run(w workload.Workload) (*stats.Run, error) {
	s.Begin(w)
	tiles := s.cfg.Tiles()
	allDone := s.AllDone

	// Cancellation is polled every few thousand events rather than per
	// event: cheap enough to be invisible, frequent enough that a deadline
	// or SIGINT stops a multi-million-cycle run promptly.
	cancelled := false
	pred := allDone
	if cancel := s.cfg.Cancel; cancel != nil {
		var steps uint
		pred = func() bool {
			steps++
			// steps == 1 catches a context that was cancelled before the
			// run started; after that, poll every 4096 events.
			if steps == 1 || steps%4096 == 0 {
				select {
				case <-cancel:
					cancelled = true
					return true
				default:
				}
			}
			return allDone()
		}
	}

	finished := s.engine.RunUntil(s.cfg.Limit, pred)
	s.run.Cycles = s.engine.Now()
	for _, c := range s.cores {
		s.run.Ops += c.Completed()
	}
	if cancelled {
		return s.run, fmt.Errorf("%w at cycle %d (%d/%d cores finished)",
			ErrCancelled, s.engine.Now(), s.finished, tiles)
	}
	if !finished && s.engine.Pending() > 0 {
		return s.run, fmt.Errorf("%w (%d cycles, %d/%d cores finished)",
			ErrCycleLimit, s.cfg.Limit, s.finished, tiles)
	}
	return s.run, s.Finish()
}

// Finish judges a run whose engine has stopped with every core done or
// with its queue drained: the one end-of-run verdict behind Run, the model
// checker's terminal states and its replays. A core still blocked is a
// deadlock (the DeadlockError dump). Otherwise Finish drains the in-flight
// work in default delivery order, with any chooser detached, declares a
// silent tile death, runs the token scrub for the token protocols, and
// verifies the quiescent system.
func (s *System) Finish() error {
	if !s.AllDone() {
		return s.deadlockError()
	}

	// Drain in-flight work (writebacks, ownership handshakes, stale timer
	// events) so the final coherence check sees a quiescent system.
	s.engine.SetChooser(nil)
	if err := s.engine.Run(s.cfg.Limit); err != nil {
		return fmt.Errorf("system: drain: %w", err)
	}

	// Silent tile death: the tile died but no survivor ever tripped over it
	// (no timeout fired against a dead node), so the directory slice it
	// hosted is still unreconstructed. Declare it by fiat — modeling an
	// OS/heartbeat-level detection — and drain the resulting flush.
	if s.domains.AnyKilled() && !s.reconstructed {
		s.domains.ForceDeclare(s.deadTile)
		if err := s.engine.Run(s.cfg.Limit); err != nil {
			return fmt.Errorf("system: post-reconstruction drain: %w", err)
		}
	}

	// Token protocols recover lost tokens lazily: a loss that starves
	// nobody stays lost until the next request for the line triggers the
	// recreation process. Before enforcing token conservation, prove that
	// recovery behaviorally — every touched line must still be writable.
	if s.cfg.Protocol.tokenBased() {
		if err := s.tokenScrub(); err != nil {
			return err
		}
	}
	return s.verifyQuiescent()
}

// Begin creates and starts the workload's cores without running the
// engine. Normal callers use Run, which does both; the model checker
// (internal/mc) drives event execution itself, one delivery decision at a
// time, and uses BeginOps to set the system in motion.
func (s *System) Begin(w workload.Workload) {
	s.BeginOps(w.Name(), workload.PerCore(w, s.cfg.Tiles(), s.cfg.OpsPerCore, s.cfg.Seed))
}

// BeginOps is Begin on prebuilt operation lists, one per tile, as
// workload.PerCore builds them for this system's configuration; name
// labels the run's statistics. The cores only read the lists, so one set
// may start any number of systems, concurrently too. After a Reset,
// BeginOps rebinds the cores the earlier run built instead of building new
// ones, and then allocates nothing.
func (s *System) BeginOps(name string, ops [][]workload.Op) {
	if tiles := s.cfg.Tiles(); len(ops) != tiles {
		panic(fmt.Sprintf("system: BeginOps got %d operation lists for %d tiles", len(ops), tiles))
	}
	s.run.Workload = name
	for i, list := range ops {
		var c *Core
		if n := len(s.cores); n < cap(s.cores) {
			c = s.cores[:n+1][n] // kept by reset, or nil past the cores built
		}
		if c != nil {
			c.restart(list)
		} else {
			c = NewCore(i, s.topo, s.ports[i], s.engine, s.cfg.ThinkTime, list, s.integrity, &s.finished)
		}
		s.cores = append(s.cores, c)
		c.Start()
	}
}

// AllDone reports whether every core has finished its operation list.
// Before Begin there are no cores and AllDone is vacuously true.
func (s *System) AllDone() bool { return s.finished == len(s.cores) }

// verifyQuiescent runs the end-of-run verification suite on a drained
// system, as the last step of Finish: every live agent must be idle, no
// mid-run invariant may have fired, and the coherence and data-integrity
// checkers must pass.
func (s *System) verifyQuiescent() error {
	// Every agent must be idle after the drain; a live transaction here
	// means a recovery loop is spinning without progress. Dead agents are
	// exempt — their state froze at the death instant and the flush already
	// absorbed every line they held.
	for _, a := range s.agents {
		id := a.NodeID()
		if s.deadNodes[id] {
			continue
		}
		if !a.Quiesced() {
			return fmt.Errorf("system: %s not quiescent after drain", s.nodeName(id))
		}
	}

	if len(s.midRunErrs) > 0 {
		return fmt.Errorf("system: mid-run invariant violated: %v (and %d more)",
			s.midRunErrs[0], len(s.midRunErrs)-1)
	}

	if errs := s.CheckCoherence(); len(errs) > 0 {
		return fmt.Errorf("system: coherence check failed: %v (and %d more)",
			errs[0], len(errs)-1)
	}
	if s.integrity != nil {
		if errs := s.integrity.Errors(); len(errs) > 0 {
			return fmt.Errorf("system: data integrity violated: %v (and %d more)",
				errs[0], len(errs)-1)
		}
	}
	return nil
}

// PendingTxn describes one in-flight transaction at deadlock time: where it
// is stuck, on which line, in which protocol state, under which serial
// number, and the last recorded protocol event for the line (empty without
// an event recorder).
type PendingTxn struct {
	Node      string
	ID        msg.NodeID
	Addr      msg.Addr
	State     string
	SN        msg.SerialNumber
	LastEvent string
}

func (p PendingTxn) String() string {
	s := fmt.Sprintf("%s addr=%#x state=%s", p.Node, p.Addr, p.State)
	if p.SN != 0 {
		s += fmt.Sprintf(" sn=%d", p.SN)
	}
	if p.LastEvent != "" {
		s += " last=" + p.LastEvent
	}
	return s
}

// DeadlockError is the error returned when the event queue drains with
// cores still blocked. It wraps ErrDeadlock (errors.Is keeps working) and
// carries a per-node dump of the stuck transactions for diagnosis.
type DeadlockError struct {
	// DoneCores of Cores finished before the queue drained at Cycle.
	DoneCores, Cores int
	Cycle            uint64
	// DeadNodes lists the structurally dead nodes (tile-death victims), in
	// ascending order — the usual culprits for the stuck survivors below.
	DeadNodes []msg.NodeID
	// Stuck counts every in-flight transaction found; Pending holds the
	// first maxPendingDump of them in (node, address) order.
	Stuck   int
	Pending []PendingTxn
}

// maxPendingDump caps the transaction dump attached to a DeadlockError.
const maxPendingDump = 20

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("%v (%d/%d cores finished at cycle %d)",
		ErrDeadlock, e.DoneCores, e.Cores, e.Cycle)
	if len(e.DeadNodes) > 0 {
		s += fmt.Sprintf("; dead nodes: %v", e.DeadNodes)
	}
	if e.Stuck > 0 {
		s += fmt.Sprintf("; %d stuck transaction(s):", e.Stuck)
		for _, p := range e.Pending {
			s += "\n  " + p.String()
		}
		if e.Stuck > len(e.Pending) {
			s += fmt.Sprintf("\n  ... and %d more", e.Stuck-len(e.Pending))
		}
	}
	return s
}

// deadlockError builds the deadlock diagnosis Finish returns when cores
// are still blocked: the transient line views of every agent, in
// deterministic (node, address) order.
func (s *System) deadlockError() *DeadlockError {
	e := &DeadlockError{
		DoneCores: s.finished,
		Cores:     s.cfg.Tiles(),
		Cycle:     s.engine.Now(),
	}
	for id := range s.deadNodes {
		e.DeadNodes = append(e.DeadNodes, id)
	}
	sort.Slice(e.DeadNodes, func(i, j int) bool { return e.DeadNodes[i] < e.DeadNodes[j] })
	var pending []PendingTxn
	for _, a := range s.agents {
		id := a.NodeID()
		a.InspectLines(func(v proto.LineView) {
			if !v.Transient {
				return
			}
			p := PendingTxn{
				Node:  s.nodeName(id),
				ID:    id,
				Addr:  v.Addr,
				State: v.State,
				SN:    v.SN,
			}
			if ev, ok := s.cfg.Obs.LastEventFor(v.Addr); ok {
				p.LastEvent = ev.Name()
			}
			pending = append(pending, p)
		})
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].ID != pending[j].ID {
			return pending[i].ID < pending[j].ID
		}
		return pending[i].Addr < pending[j].Addr
	})
	e.Stuck = len(pending)
	if len(pending) > maxPendingDump {
		pending = pending[:maxPendingDump]
	}
	e.Pending = pending
	return e
}

// nodeName renders a node ID as the quiescence checker and the deadlock
// dump name agents: "L1 4", "L2 bank 5", "home 5", "memory 8".
func (s *System) nodeName(id msg.NodeID) string {
	switch {
	case s.topo.IsL1(id):
		return fmt.Sprintf("L1 %d", id)
	case s.topo.IsL2(id):
		if s.cfg.Protocol.tokenBased() {
			return fmt.Sprintf("home %d", id)
		}
		return fmt.Sprintf("L2 bank %d", id)
	case s.topo.IsMem(id):
		return fmt.Sprintf("memory %d", id)
	default:
		return fmt.Sprintf("node %d", id)
	}
}

// MidRunViolations returns the post-recovery invariant violations caught by
// the recovery probe (empty unless both CheckIntegrity and an event
// recorder are configured).
func (s *System) MidRunViolations() []error { return s.midRunErrs }

// MemoryImage returns the final committed version of every line the system
// tracks, read from each line's owner view. Call it after a successful Run:
// at quiescence exactly one agent owns each line (CheckCoherence enforces
// it), and the owner's version — the count of committed writes — is a
// deterministic function of the workload alone, independent of message
// timing. The final *values* are not timing-invariant (the last writer of a
// racing pair may differ under fault-perturbed timing); value correctness
// is the data-integrity oracle's job.
func (s *System) MemoryImage() map[msg.Addr]uint64 {
	entries := s.memoryImage()
	img := make(map[msg.Addr]uint64, len(entries))
	for _, e := range entries {
		img[e.addr] = e.version
	}
	return img
}

// memoryImage gathers the memory image into the reused s.image scratch:
// one entry per line, the highest owner version, sorted by address. The
// result is valid until the next call.
func (s *System) memoryImage() []imageEntry {
	s.image = s.image[:0]
	for _, a := range s.agents {
		if s.deadNodes[a.NodeID()] {
			// A dead agent's ownership was re-established elsewhere by the
			// reconstruction flush; its frozen views no longer count.
			continue
		}
		a.InspectLines(s.imageLine)
	}
	return s.sortImage()
}

// sortImage turns the owner views gathered in s.image into the memory
// image: sorted by address, keeping each address's highest version.
func (s *System) sortImage() []imageEntry {
	slices.SortFunc(s.image, func(a, b imageEntry) int {
		return cmp.Or(cmp.Compare(a.addr, b.addr), cmp.Compare(a.version, b.version))
	})
	// Keep the last, highest-version, entry of each address.
	out := s.image[:0]
	for i, e := range s.image {
		if i+1 < len(s.image) && s.image[i+1].addr == e.addr {
			continue
		}
		out = append(out, e)
	}
	s.image = out
	return out
}

// MemoryImageHash condenses MemoryImage into one FNV-1a hash over the
// sorted (address, version) pairs, for cheap cross-run comparison.
func (s *System) MemoryImageHash() uint64 {
	return imageHash(s.memoryImage())
}

// imageHash is MemoryImageHash over an image memoryImage or sortImage
// built.
func imageHash(image []imageEntry) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range image {
		put64(buf[:8], uint64(e.addr))
		put64(buf[8:], e.version)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// tokenScrub writes every line any agent still holds state for, through
// core 0. Each write needs all of the line's tokens, so it exercises the
// starvation-recovery machinery for any tokens a fault destroyed and
// leaves the system with full token conservation for the final check.
func (s *System) tokenScrub() error {
	seen := make(map[msg.Addr]bool)
	var addrs []msg.Addr
	for _, a := range s.agents {
		a.InspectLines(func(v proto.LineView) {
			if !seen[v.Addr] {
				seen[v.Addr] = true
				addrs = append(addrs, v.Addr)
			}
		})
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	port := s.ports[0]
	for _, addr := range addrs {
		done := false
		var res proto.AccessResult
		value := 0x5c0b ^ uint64(addr)
		port.Write(addr, value, func(r proto.AccessResult) { done = true; res = r })
		if !s.engine.RunUntil(s.cfg.Limit, func() bool { return done }) {
			return fmt.Errorf("system: recovery scrub: line %#x is no longer writable", addr)
		}
		if s.integrity != nil {
			s.integrity.OnCoreWrite(0, addr, res.Version, res.Value)
		}
	}
	if err := s.engine.Run(s.cfg.Limit); err != nil {
		return fmt.Errorf("system: scrub drain: %w", err)
	}
	return nil
}

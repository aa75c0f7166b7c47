package system

import (
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Core models an in-order processor: it issues one memory operation at a
// time, blocking on misses, with a fixed think time between operations
// (the paper assumes in-order cores; §2).
type Core struct {
	id        int
	topo      proto.Topology
	port      proto.L1Port
	engine    *sim.Engine
	thinkTime uint64
	ops       []workload.Op // read-only; may be shared with other systems
	pos       int           // index of the next operation to issue
	integrity *Integrity

	seq       uint64
	completed uint64
	done      bool
	killed    bool
	// finished is the system's count of done cores, which the core
	// increments the moment it becomes done.
	finished *int

	// The completion callbacks are built once here: the core is in-order
	// (one operation in flight), so a single prepared callback per access
	// kind keeps the steady-state loop allocation-free. curAddr is the
	// in-flight operation's line address, read by the completion callbacks.
	curAddr msg.Addr
	onRead  func(proto.AccessResult)
	onWrite func(proto.AccessResult)
}

// NewCore builds a core bound to an L1 port and an operation list, which
// it only reads. integrity may be nil. finished counts the done cores: the
// core adds one to it when it becomes done.
func NewCore(id int, topo proto.Topology, port proto.L1Port, engine *sim.Engine,
	thinkTime uint64, ops []workload.Op, integrity *Integrity, finished *int) *Core {
	c := &Core{
		id:        id,
		topo:      topo,
		port:      port,
		engine:    engine,
		thinkTime: thinkTime,
		integrity: integrity,
		finished:  finished,
	}
	c.onRead = func(res proto.AccessResult) {
		if c.integrity != nil {
			c.integrity.OnCoreRead(c.id, c.curAddr, res.Version, res.Value)
		}
		c.completeOp()
	}
	c.onWrite = func(res proto.AccessResult) {
		if c.integrity != nil {
			c.integrity.OnCoreWrite(c.id, c.curAddr, res.Version, res.Value)
		}
		c.completeOp()
	}
	c.restart(ops)
	return c
}

// restart returns the core to the state NewCore leaves it in, bound to a
// new operation list: nothing issued, completed or killed.
func (c *Core) restart(ops []workload.Op) {
	c.ops, c.pos = ops, 0
	c.seq, c.completed = 0, 0
	c.done, c.killed = false, false
	c.curAddr = 0
}

// Start schedules the first operation.
func (c *Core) Start() {
	c.engine.ScheduleCall(0, coreNext, c, 0)
}

// coreNext is the core's issue event: arg is the *Core.
func coreNext(arg any, _ uint64) { arg.(*Core).next() }

// Done reports whether every operation has issued and completed (or the
// core was killed).
func (c *Core) Done() bool { return c.done }

// Kill permanently stops the core at a tile death: the in-flight operation
// (if any) is abandoned — its completion callback never fires against the
// halted L1 — and no further operations issue. A killed core counts as done
// so the run can terminate on the survivors alone.
func (c *Core) Kill() {
	c.killed = true
	if !c.done {
		c.done = true
		*c.finished++
	}
}

// Killed reports whether the core was stopped by a tile death.
func (c *Core) Killed() bool { return c.killed }

// Completed returns how many operations have committed.
func (c *Core) Completed() uint64 { return c.completed }

func (c *Core) next() {
	if c.killed {
		return
	}
	if c.pos == len(c.ops) {
		c.done = true
		*c.finished++
		return
	}
	op := c.ops[c.pos]
	c.pos++
	addr := msg.Addr(op.Line) * msg.Addr(c.topo.LineSize)
	c.curAddr = addr
	if op.Write {
		c.seq++
		value := uint64(c.id+1)<<40 | c.seq
		c.port.Write(addr, value, c.onWrite)
		return
	}
	c.port.Read(addr, c.onRead)
}

func (c *Core) completeOp() {
	if c.killed {
		return
	}
	c.completed++
	c.engine.ScheduleCall(c.thinkTime, coreNext, c, 0)
}

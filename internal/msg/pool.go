package msg

import (
	"os"
	"sync"
	"sync/atomic"
)

// Message pooling. The simulation sends hundreds of messages per memory
// operation; allocating each one individually dominated the steady-state
// allocation profile. Messages are recycled on two levels:
//
//   - Each network owns a Pool: a plain freelist, threaded through the
//     free messages themselves, with plain counters. A simulation is one
//     goroutine, so drawing a message from its network's Pool touches no
//     atomic and no sync.Pool.
//   - Behind every Pool stands one sync.Pool shared by all concurrently
//     running simulations (sync.Pool gives each P its own cache, so there
//     is no cross-run contention). A Pool falls through to it when its
//     freelist is empty, and Flush hands it the free messages when a run
//     ends, so the fresh systems of a campaign reuse what earlier runs
//     recycled.
//
// Ownership contract (see docs/PERFORMANCE.md):
//
//   - The builder of a message owns it until it hands it to the network
//     (noc.Network.Send); from then on the network owns it.
//   - On delivery the destination handler *borrows* the message for the
//     duration of the call; when the handler returns, the network recycles
//     it. A handler that needs any part of a message afterwards must copy
//     it out (by value) before returning.
//   - Dropped messages are recycled by the network after the drop has been
//     reported to the recorders.
//
// Pooling is behavioural plumbing only: recycled messages are zeroed on
// reuse, and the REPRO_NOPOOL=1 environment variable (or SetPooling(false))
// swaps in plain allocation so any suspected reuse bug can be bisected —
// simulation output must be byte-identical either way, which the
// pool-correctness tests pin. A Pool reads the setting when its network is
// built or reset, so a change takes effect at the next noc.New or
// Network.Reset.
var poolingDisabled atomic.Bool

func init() {
	if os.Getenv("REPRO_NOPOOL") == "1" {
		poolingDisabled.Store(true)
	}
}

// SetPooling enables or disables message pooling (tests use it to prove
// pooled and unpooled runs are byte-identical). A network's freelist reads
// it at the network's next noc.New or Network.Reset; NewMessage and a
// freelist's misses read it on every call.
func SetPooling(enabled bool) { poolingDisabled.Store(!enabled) }

// PoolingEnabled reports whether messages are recycled.
func PoolingEnabled() bool { return !poolingDisabled.Load() }

var msgPool sync.Pool

// Pool-health counters, process-wide across every simulation: poolGets
// counts messages requested, poolNews the requests that allocated a fresh
// Message because no recycled one was at hand. gets-news is the reuse
// count; ftserve exports both as /metrics gauges, and the benchmark derives
// its reuse ratio from them.
var poolGets, poolNews atomic.Uint64

// PoolStats reports how many messages were requested and how many of those
// requests allocated a fresh Message since process start, counting
// NewMessage calls and the Pools flushed so far (a network's Pool is
// flushed when each engine run returns). With pooling disabled every get
// is a miss.
func PoolStats() (gets, news uint64) {
	return poolGets.Load(), poolNews.Load()
}

// NewMessage returns a zeroed Message from the shared pool, counted in
// PoolStats at once. Simulations draw their messages from their network's
// Pool instead; NewMessage serves code that holds no network.
func NewMessage() *Message {
	poolGets.Add(1)
	m, miss := shared()
	if miss {
		poolNews.Add(1)
	}
	return m
}

// shared returns a zeroed Message from the shared pool, or a fresh one
// (miss) when pooling is disabled or the pool is empty.
func shared() (m *Message, miss bool) {
	if poolingDisabled.Load() {
		return new(Message), true
	}
	if m, ok := msgPool.Get().(*Message); ok {
		*m = Message{}
		return m, false
	}
	return new(Message), true
}

// Pool is one network's message freelist, in front of the shared pool.
// The zero Pool is ready to use with pooling enabled; Reset reads the
// pooling setting. A Pool belongs to one simulation and is not safe for
// concurrent use.
type Pool struct {
	free       *Message // chained through Message.next
	gets, news uint64   // counts not yet added to PoolStats
	off        bool     // pooling disabled when the Pool was last reset

	// held is set while a snapshot holds the Pool (Snapshot to Reset):
	// Flush then keeps the messages, and drawn lists the ones Get took
	// from the shared pool since the snapshot or the last Restore.
	held  bool
	drawn []*Message
}

// Reset reads the pooling setting and ends any snapshot's hold on the
// Pool. With pooling disabled the freelist is dropped and Put discards, so
// every Get falls through to shared, which allocates.
func (p *Pool) Reset() {
	p.off = poolingDisabled.Load()
	if p.off {
		p.free = nil
	}
	p.held = false
	clear(p.drawn)
	p.drawn = p.drawn[:0]
}

// Get returns a zeroed Message: the newest recycled one, else one from the
// shared pool, else a fresh allocation.
func (p *Pool) Get() *Message {
	p.gets++
	if m := p.free; m != nil {
		p.free = m.next
		*m = Message{}
		return m
	}
	m, miss := shared()
	if miss {
		p.news++
	}
	if p.held && !p.off {
		p.drawn = append(p.drawn, m)
	}
	return m
}

// Put recycles m into the freelist. The caller must own m (see the
// ownership contract above) and must not touch it afterwards.
func (p *Pool) Put(m *Message) {
	if p.off {
		return
	}
	m.next = p.free
	p.free = m
}

// Flush ends a run's use of the Pool: the free messages go to the shared
// pool, for any simulation to reuse, and the counts to PoolStats. While a
// snapshot holds the Pool, Flush publishes the counts and keeps the
// messages: one in flight at the snapshot may be free now and in flight
// again after a Restore.
func (p *Pool) Flush() {
	if p.gets != 0 {
		poolGets.Add(p.gets)
		poolNews.Add(p.news)
		p.gets, p.news = 0, 0
	}
	if p.held {
		return
	}
	for m := p.free; m != nil; {
		next := m.next
		m.next = nil
		msgPool.Put(m)
		m = next
	}
	p.free = nil
}

// PoolSnapshot holds a Pool's freelist for Restore. The zero value is an
// empty buffer; Snapshot reuses its storage.
type PoolSnapshot struct {
	free []*Message // the freelist, newest first
}

// Snapshot records the freelist into s and holds the Pool until its next
// Reset: from now on every message the Pool takes in stays with it, so a
// Restore can hand back all of them. The caller records the values of the
// messages that are not free (those in flight or waiting in a queued
// event) itself.
func (p *Pool) Snapshot(s *PoolSnapshot) {
	s.free = s.free[:0]
	for m := p.free; m != nil; m = m.next {
		s.free = append(s.free, m)
	}
	p.held = true
	clear(p.drawn)
	p.drawn = p.drawn[:0]
}

// Restore rebuilds the freelist of snapshot s, taken from this Pool since
// its last Reset, with the messages taken from the shared pool since then
// below it; s keeps those too, for the next Restore. Every message the
// Pool took in since the snapshot is then either free or, having been
// live at the snapshot, the caller's to rewrite. The PoolStats counts are
// not rolled back.
func (p *Pool) Restore(s *PoolSnapshot) {
	s.free = append(s.free, p.drawn...)
	clear(p.drawn)
	p.drawn = p.drawn[:0]
	var next *Message
	for i := len(s.free) - 1; i >= 0; i-- {
		m := s.free[i]
		m.next = next
		next = m
	}
	p.free = next
}

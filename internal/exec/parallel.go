package exec

import (
	"context"
	"sync"

	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// Partition-parallel execution. A partitioned plan runs as P clones of the
// operator chain, each with its own Context (virtual clock) and its own
// state structures, so the per-tuple hot path takes no locks. The
// ParallelDriver reads sources with the same availability-ordered serial
// loop as Driver, hash-scatters each post-filter run across the partitions
// (an Exchange per leaf), and hands sub-batches to one worker goroutine
// per partition over bounded channels. Worker-side Exchanges installed at
// repartition boundaries (join→join, join→agg) deliver same-partition rows
// synchronously and queue cross-partition rows in per-destination outbox
// buffers that the worker flushes between messages — never from inside an
// operator frame, so operator scratch state is never reentered, and the
// flush loop keeps receiving its own inbox while a send blocks, which
// makes the bounded channels deadlock-free. Everything that travels is a
// row batch: one message payload, one handler table, one outbox and one
// set of message buffers, which the next driver takes back (msgBufs).
//
// Consistency points use a single WaitGroup that counts in-flight
// messages plus non-empty outbox slots: when it reaches zero, every
// delivered tuple has been fully processed and every worker is parked on
// an empty inbox — the "consistent state" the corrective monitor needs
// (§4.1), reached here by quiescing instead of by being single-threaded.
// End-of-stream runs the pipeline finishers as broadcast finish steps,
// one quiesce round per finisher, so cross-partition emissions of step s
// (a pre-aggregate flush) are absorbed everywhere before any step s+1
// finisher runs.
const (
	// ParReadBatch is the parallel driver's source-read batch cap: larger
	// than the serial DefaultBatch so each channel message amortizes more
	// per-message overhead.
	ParReadBatch = 512
	// parInboxCap bounds each worker's inbox, in messages.
	parInboxCap = 8
)

// parMsg is one unit of work on a worker inbox: a finish step broadcast
// (step >= 0) or a data sub-batch for one entry point.
type parMsg struct {
	step    int // -1 = data message, >= 0 = run finisher step
	entry   int
	rows    []types.Tuple // a buffer of the driver's msgBufs, given back after processing
	arrival int64         // sender's virtual time; receiver advances to it
}

// msgBufs is a driver's free message buffers, the one given back last taken
// first. The driver takes a set from msgPool when its workers start and
// gives it back when they have stopped (Close), so the next driver sends in
// the buffers this one grew. The driver goroutine and the workers share it.
type msgBufs struct {
	mu   sync.Mutex
	free [][]types.Tuple
}

var msgPool = state.Pool[msgBufs]{New: func() *msgBufs { return &msgBufs{} }}

// get returns an empty buffer: a free one, else a new one of a read batch.
func (b *msgBufs) get() []types.Tuple {
	b.mu.Lock()
	n := len(b.free)
	if n == 0 {
		b.mu.Unlock()
		return make([]types.Tuple, 0, ParReadBatch)
	}
	buf := b.free[n-1]
	b.free = b.free[:n-1]
	b.mu.Unlock()
	return buf
}

// put clears buf, so that it holds no row, and frees it.
func (b *msgBufs) put(buf []types.Tuple) {
	clear(buf)
	b.mu.Lock()
	b.free = append(b.free, buf[:0])
	b.mu.Unlock()
}

// ParallelDriver executes one lowered, partitioned plan: the serial read
// loop on the calling goroutine, one worker per partition. Construct with
// NewParallelDriver, wire entries with Bind/LeafScatter, then Run, Finish,
// Close (in that order).
type ParallelDriver struct {
	ctx   *Context // driver context: read-loop clock and cost model
	parts int
	ctxs  []*Context // per-partition contexts

	// handlers[p][e] takes a data sub-batch into partition p's entry e.
	// Entry numbering is the caller's (leaf entries then boundaries).
	handlers [][]Sink
	finish   func(part, step int)
	steps    int

	inbox   []chan parMsg
	workers []*parWorker
	// inflight counts undelivered/unprocessed messages plus non-empty
	// outbox slots; zero means the whole pipeline is quiescent.
	inflight sync.WaitGroup
	joined   sync.WaitGroup // worker goroutines
	bufs     *msgBufs       // from msgPool while the workers run

	read    *Driver
	started bool
	closed  bool

	// Fatal mirrors Driver.Fatal for the parallel read loop: consulted
	// between read batches; a non-nil return aborts the run with that
	// error after quiescing the workers. Set before RunContext.
	Fatal func() error
}

// parWorker owns partition p: its inbox processing and its outbox
// buffers (out[dst][entry]; unused for dst == p).
type parWorker struct {
	pd  *ParallelDriver
	p   int
	out [][][]types.Tuple
}

// NewParallelDriver creates a driver over per-partition contexts (one per
// partition, typically fresh clocks sharing ctx's cost model).
func NewParallelDriver(ctx *Context, ctxs []*Context) *ParallelDriver {
	return &ParallelDriver{ctx: ctx, parts: len(ctxs), ctxs: ctxs}
}

// Partitions returns the partition count.
func (pd *ParallelDriver) Partitions() int { return pd.parts }

// PartitionContexts exposes the per-partition contexts (read their clocks
// only at a consistent point: after Quiesce, Finish, or Close).
func (pd *ParallelDriver) PartitionContexts() []*Context { return pd.ctxs }

// Bind installs the per-partition entry sinks, which every data sub-batch
// reaches unsigned, and the finisher protocol (steps broadcast rounds, each
// running finish(p, step) on every partition). Must be called before Run.
func (pd *ParallelDriver) Bind(handlers [][]Sink, finish func(part, step int), steps int) {
	pd.handlers = handlers
	pd.finish = finish
	pd.steps = steps
}

// LeafScatter returns the driver-side exchange for one source leaf: a
// sink that hash-partitions post-filter source rows on
// keyCols and ships each partition's share to its worker, stamped with
// the driver clock's current virtual time (the rows' arrival horizon). Its
// scratch is lent by the driver context's spare.
func (pd *ParallelDriver) LeafScatter(entry int, keyCols []int) *Exchange {
	return pd.ctx.Exchange(pd.parts, keyCols, func(part int, rows []types.Tuple) {
		pd.sendData(part, entry, rows)
	})
}

// StageSend is the worker-side exchange route: rows produced by partition
// `from` for another partition are appended to the sender's outbox slot
// and flushed between messages. It must only be called from partition
// from's worker goroutine (exchanges live inside that partition's chain).
func (pd *ParallelDriver) StageSend(from, dst, entry int, rows []types.Tuple) {
	if dst == from {
		pd.handlers[from][entry].Push(rows, 0)
		return
	}
	if len(rows) == 0 {
		return
	}
	w := pd.workers[from]
	slot := w.out[dst][entry]
	if len(slot) == 0 {
		// The slot's credit is released when the packed message is
		// processed by the destination worker.
		pd.inflight.Add(1)
	}
	w.out[dst][entry] = append(slot, rows...)
}

// sendData ships a data sub-batch from the driver goroutine to a worker,
// copying the rows into a message buffer (the source slice is reused by
// the caller's exchange).
func (pd *ParallelDriver) sendData(dst, entry int, rows []types.Tuple) {
	buf := append(pd.bufs.get(), rows...)
	pd.inflight.Add(1)
	pd.inbox[dst] <- parMsg{step: -1, entry: entry, rows: buf, arrival: pd.ctx.Clock.Now}
}

// start launches the workers (idempotent).
func (pd *ParallelDriver) start() {
	if pd.started {
		return
	}
	pd.started = true
	pd.bufs = msgPool.Get()
	entries := 0
	if len(pd.handlers) > 0 {
		entries = len(pd.handlers[0])
	}
	pd.inbox = make([]chan parMsg, pd.parts)
	pd.workers = make([]*parWorker, pd.parts)
	for p := 0; p < pd.parts; p++ {
		pd.inbox[p] = make(chan parMsg, parInboxCap)
		out := make([][][]types.Tuple, pd.parts)
		for d := range out {
			out[d] = make([][]types.Tuple, entries)
		}
		pd.workers[p] = &parWorker{pd: pd, p: p, out: out}
	}
	for p := 0; p < pd.parts; p++ {
		pd.joined.Add(1)
		go pd.workers[p].run()
	}
}

// RunContext delivers source tuples until exhaustion or until poll asks
// to suspend, exactly like Driver.Run, except that deliveries scatter
// across the partition workers and poll observes a quiesced pipeline:
// before each poll call the driver waits until every in-flight batch has
// been fully processed and all workers are parked, so poll may safely read
// per-partition operator state. The leaves' deliveries (Leaf.PushBatch)
// are expected to route into this driver's LeafScatter exchanges.
//
// The context is checked between read batches; on cancel the driver stops
// reading, quiesces the workers (every in-flight message fully processed,
// all workers parked — the same consistent state a poll suspension
// reaches), and returns the context's error. The workers stay alive so
// the caller decides between resuming and Close; a canceled run must still
// Close to join them.
func (pd *ParallelDriver) RunContext(ctx context.Context, leaves []*Leaf, pollEvery int, poll func() bool) (exhausted bool, err error) {
	pd.start()
	pd.read = NewDriver(pd.ctx, leaves...)
	pd.read.Fatal = pd.Fatal
	wrapped := poll
	if poll != nil {
		wrapped = func() bool {
			pd.Quiesce()
			return poll()
		}
	}
	exhausted, err = pd.read.run(ctx, ParReadBatch, pollEvery, wrapped)
	if err != nil {
		pd.Quiesce()
	}
	return exhausted, err
}

// Delivered reports tuples delivered across all leaves so far.
func (pd *ParallelDriver) Delivered() int64 {
	if pd.read == nil {
		return 0
	}
	return pd.read.Delivered
}

// Quiesce blocks until the pipeline is fully drained: all sent messages
// processed, all outboxes flushed, all workers parked on empty inboxes.
// Only the driver goroutine may call it, and not while a send is pending.
func (pd *ParallelDriver) Quiesce() {
	pd.inflight.Wait()
}

// Finish propagates end-of-stream: each pipeline finisher runs as one
// broadcast round across all partitions with a quiesce barrier after it,
// so everything a finisher emits — including cross-partition rows through
// boundary exchanges — is absorbed everywhere before the next finisher.
func (pd *ParallelDriver) Finish() {
	pd.start()
	pd.Quiesce()
	for s := 0; s < pd.steps; s++ {
		for p := 0; p < pd.parts; p++ {
			pd.inflight.Add(1)
			pd.inbox[p] <- parMsg{step: s}
		}
		pd.Quiesce()
	}
}

// Close shuts the workers down after a final quiesce and gives the message
// buffers back for the next driver. The per-partition contexts and operator
// state are safe to read afterwards.
func (pd *ParallelDriver) Close() {
	if !pd.started || pd.closed {
		return
	}
	pd.closed = true
	pd.Quiesce()
	for p := range pd.inbox {
		close(pd.inbox[p])
	}
	pd.joined.Wait()
	msgPool.Put(pd.bufs)
	pd.bufs = nil
}

// FoldClocks folds the per-partition clocks into the driver clock: Now
// advances to the slowest partition (the parallel makespan — partitions
// run concurrently, so elapsed virtual time is their maximum), while CPU
// accumulates every partition's charged work (total work is the sum).
//
// Determinism caveat: a partition clock interleaves AdvanceTo (a max)
// with Charge (a sum), so its reading depends on the order messages reach
// it — never on the order charges are added, which integer nanoseconds make
// unobservable. With the driver as a partition's only producer that order
// is FIFO and the clocks are reproducible; once mid-plan exchanges add
// peer-worker producers, inbox interleaving is scheduling-dependent and
// per-partition readings may vary run-to-run (bounded by the work
// performed). Rows and counters are never affected — only the clock
// diagnostics.
func (pd *ParallelDriver) FoldClocks() {
	for _, c := range pd.ctxs {
		pd.ctx.Clock.AdvanceTo(c.Clock.Now)
		pd.ctx.Clock.CPU += c.Clock.CPU
	}
}

// run is the worker loop: flush the outbox, then block on the inbox.
func (w *parWorker) run() {
	defer w.pd.joined.Done()
	for {
		w.flush()
		m, ok := <-w.pd.inbox[w.p]
		if !ok {
			return
		}
		w.handle(m)
	}
}

// handle processes one message. For data, the partition clock first
// advances to the batch's arrival horizon (a partition cannot process
// tuples before they exist), then the entry's operators run and charge
// their costs to this partition's clock.
func (w *parWorker) handle(m parMsg) {
	pd := w.pd
	if m.step >= 0 {
		pd.finish(w.p, m.step)
		pd.inflight.Done()
		return
	}
	pd.ctxs[w.p].Clock.AdvanceTo(m.arrival)
	pd.handlers[w.p][m.entry].Push(m.rows, 0)
	pd.bufs.put(m.rows)
	pd.inflight.Done()
}

// flush drains every non-empty outbox slot. Processing received messages
// while a send blocks may refill slots (including ones already visited),
// so the scan repeats until a full pass finds nothing pending.
func (w *parWorker) flush() {
	for {
		pending := false
		for dst := 0; dst < w.pd.parts; dst++ {
			if dst == w.p {
				continue
			}
			for e := range w.out[dst] {
				if len(w.out[dst][e]) > 0 {
					pending = true
					w.sendSlot(dst, e)
				}
			}
		}
		if !pending {
			return
		}
	}
}

// sendSlot packs one outbox slot into a message buffer and sends it,
// servicing this worker's own inbox while the destination is full — the
// receive keeps the system live (no send-cycle deadlock) and is safe
// because flush only runs between messages, never inside an operator.
func (w *parWorker) sendSlot(dst, entry int) {
	pd := w.pd
	rows := w.out[dst][entry]
	buf := append(pd.bufs.get(), rows...)
	clear(rows)
	w.out[dst][entry] = rows[:0]
	// The slot's inflight credit transfers to the message; the receiver
	// releases it after processing.
	m := parMsg{step: -1, entry: entry, rows: buf, arrival: pd.ctxs[w.p].Clock.Now}
	for {
		select {
		case pd.inbox[dst] <- m:
			return
		case in, ok := <-pd.inbox[w.p]:
			if ok {
				w.handle(in)
			}
		}
	}
}

// PartitionMerge is the order-releasing merge sink at the root of a
// partitioned plan. Partition p's root rows accumulate in its own buffer,
// in append order — deterministic whenever the partition's input order is —
// and the merged order is the concatenation of the partition sequences in
// ascending partition order. Partition 0's buffered rows are therefore
// always a prefix of the rows still to come: at a quiescent point (a
// monitor poll) ReleasePrefix streams them downstream mid-phase, and at the
// phase end Drain releases every buffer in partition order, so streaming
// early never changes the total order. With cross-partition repartitioning
// in the plan the within-partition order is scheduling-dependent, so the
// merged stream is deterministic as a per-partition-ordered multiset, not as
// a global sequence.
type PartitionMerge struct {
	bufs []*partitionBuf
}

// partitionBuf buffers one partition's root rows until their release.
type partitionBuf struct {
	rows  []types.Tuple
	total int         // rows ever buffered
	sent  int         // rows released
	colIn colDelivery // PushColBatch's materializer (colbatch.go)
}

// Push implements Sink. A partitioned phase never maintains (SignBlind).
func (b *partitionBuf) Push(ts []types.Tuple, sign int) {
	SignBlind(sign)
	b.rows = append(b.rows, ts...)
	b.total += len(ts)
}

// release delivers the buffered rows downstream and empties the buffer.
func (b *partitionBuf) release(out Sink) {
	if len(b.rows) == 0 {
		return
	}
	out.Push(b.rows, 0)
	b.sent += len(b.rows)
	clear(b.rows)
	b.rows = b.rows[:0]
}

// NewPartitionMerge creates a merge over parts partitions.
func NewPartitionMerge(parts int) *PartitionMerge {
	m := &PartitionMerge{bufs: make([]*partitionBuf, parts)}
	for i := range m.bufs {
		m.bufs[i] = &partitionBuf{}
	}
	return m
}

// Sink returns partition p's root sink.
func (m *PartitionMerge) Sink(p int) Sink { return m.bufs[p] }

// Len returns the total number of root tuples ever buffered (released
// rows included).
func (m *PartitionMerge) Len() int {
	n := 0
	for _, b := range m.bufs {
		n += b.total
	}
	return n
}

// Released returns how many rows ReleasePrefix/Drain have delivered.
func (m *PartitionMerge) Released() int {
	n := 0
	for _, b := range m.bufs {
		n += b.sent
	}
	return n
}

// ReleasePrefix delivers partition 0's rows buffered since the last
// release: the longest prefix of the merged order that is final while the
// other partitions still run. Call only at a quiescent point (rows
// mid-flight could otherwise still append behind a released window).
func (m *PartitionMerge) ReleasePrefix(out Sink) { m.bufs[0].release(out) }

// Drain releases every partition's remaining rows downstream in partition
// order and frees the buffers. Call only after the pipeline has quiesced;
// the total delivered sequence (earlier ReleasePrefix calls included) is
// identical to a single phase-end drain.
func (m *PartitionMerge) Drain(out Sink) {
	for _, b := range m.bufs {
		b.release(out)
		b.rows = nil
	}
}

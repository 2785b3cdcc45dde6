//! Sharded execution of the event loop: serial fast path and the
//! conservative-lookahead thread-per-shard driver.
//!
//! # Execution model
//!
//! The topology is partitioned by node region into `N` shards, each owning
//! an event wheel, the nodes assigned to it and every link *leaving* those
//! nodes. The parallel driver repeatedly:
//!
//! 1. finds `m_u`, the earliest pending event instant of every shard `u`
//!    (and their minimum `T`, which decides termination);
//! 2. lets every shard `s` independently drain its window
//!    `[T, min_u(m_u + D⁺[u][s]))`, where `D⁺[u][s]` is the minimum delay
//!    of any ≥1-link cross-shard path from `u` to `s` (Floyd–Warshall
//!    closure over per-pair direct link minima, cycles back to `s`
//!    included) — jitter, serialization, same-shard forwarding legs and
//!    injected-fault extras only ever *add* delay, so no event another
//!    shard has yet to process can land inside the window. With adaptive
//!    lookahead disabled the bound degenerates to the classic
//!    `[T, T + L)` where `L` is the global minimum cross-shard delay;
//! 3. exchanges the buffered cross-shard arrivals (each was scheduled
//!    strictly after the destination's window) into the destination
//!    wheels, then loops.
//!
//! The worker threads driving the lanes live in a persistent [`ShardPool`]
//! owned by the simulator: spawned on the first threaded run, parked
//! between `run_until` calls, joined on drop — so window overhead does not
//! scale with the number of `run_until` calls a harness makes.
//!
//! # Determinism
//!
//! Within a window, shards interleave arbitrarily — but they share no
//! mutable state: nodes, per-node RNG/counters and outgoing links are
//! owned by exactly one shard, and event tie-break keys, RNG streams and
//! packet ids are all content-derived (see [`crate::sim::EvKey`]). The
//! wheel pops in `(at, key)` order regardless of insertion order, so the
//! exchange needs no sorting. The result: every observable outcome is
//! byte-identical to the `N = 1` serial run.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe`: worker threads
//! index into shared slices ([`SlicePtr`]) under the partition discipline
//! that thread `s` only ever touches elements whose shard is `s` (nodes,
//! links, per-node meta) or slots reserved for it (its wheel, its
//! counters, its outbox row / inbox column). Windows are separated by
//! barriers, so accesses to an element from different phases never race.

#![allow(unsafe_code)]

use crate::fault::NodeOutageSet;
use crate::sim::{
    Action, Ctx, EvKey, EvKind, EvPayload, NodeId, NodeMeta, ShardCounters, Simulator,
};
use crate::time::{Duration, Instant};
use crate::wheel::TimerWheel;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A raw view over a `&mut [T]` that can be shared across worker threads.
/// `get_mut` hands out `&mut T` to disjoint elements; callers uphold the
/// partition discipline documented on the module.
pub(crate) struct SlicePtr<'a, T> {
    ptr: *mut T,
    len: usize,
    _pd: PhantomData<&'a mut [T]>,
}

impl<'a, T> SlicePtr<'a, T> {
    fn new(s: &'a mut [T]) -> SlicePtr<'a, T> {
        SlicePtr {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _pd: PhantomData,
        }
    }

    /// # Safety
    /// The caller must guarantee no other live reference to element `i`
    /// (each element is owned by exactly one shard/phase at a time).
    #[inline]
    unsafe fn get_mut(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

impl<T> Clone for SlicePtr<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<'_, T> {}
// Safety: SlicePtr is only a capability to reach elements; the partition
// discipline (one shard per element) provides the actual exclusion.
unsafe impl<T: Send> Send for SlicePtr<'_, T> {}
unsafe impl<T: Send> Sync for SlicePtr<'_, T> {}

/// Sense-counting spin barrier; windows are hundreds of microseconds of
/// simulated work, so parking would dominate.
struct SpinBarrier {
    count: AtomicUsize,
    gen: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                spins += 1;
                if spins < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    // More shards than cores, or a long tail: be polite.
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Type-erased pointer to one parallel run's per-lane closure. The
/// borrowed closure is only reachable between a job's publication and the
/// dispatcher's completion wait, which is what makes the `'static` erasure
/// sound (see [`ShardPool::run`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));
// Safety: the pointee is `Sync` (shared by every worker) and the pointer
// is only dereferenced while the dispatching thread keeps it alive.
unsafe impl Send for Job {}

/// Generation-stamped job slot shared between the dispatcher and the
/// parked workers.
struct PoolState {
    /// Bumped once per published job; a worker runs each generation once.
    gen: u64,
    /// Workers participating in the current generation (lanes `1..=n`).
    participants: usize,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Participants that finished the current job.
    done: Mutex<usize>,
    done_cv: Condvar,
}

/// The persistent shard worker pool: threads are spawned once per
/// simulator (grown lazily if later runs activate more shards), parked on
/// a condvar between `run_until` calls, and joined when the simulator is
/// dropped. Replaces the per-call `std::thread::scope` spawn so window
/// overhead no longer scales with the number of `run_until` calls.
pub(crate) struct ShardPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    pub(crate) fn new() -> ShardPool {
        ShardPool {
            shared: std::sync::Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    gen: 0,
                    participants: 0,
                    job: None,
                    shutdown: false,
                }),
                wake: Condvar::new(),
                done: Mutex::new(0),
                done_cv: Condvar::new(),
            }),
            handles: Vec::new(),
        }
    }

    /// Number of worker threads currently alive (excluding the caller).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    fn ensure_workers(&mut self, n: usize) {
        while self.handles.len() < n {
            let idx = self.handles.len();
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("acacia-shard-{}", idx + 1))
                .spawn(move || worker_loop(&shared, idx))
                .expect("spawn shard pool worker");
            self.handles.push(handle);
        }
    }

    /// Run `f(lane)` for every lane in `0..nlanes`: lane 0 on the calling
    /// thread, the rest on pool workers. Blocks until every lane returned
    /// — including on unwind, so borrows captured by `f` stay valid for
    /// the workers' whole execution (the scoped-spawn guarantee, without
    /// the per-call spawn).
    pub(crate) fn run(&mut self, nlanes: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = nlanes.saturating_sub(1);
        if workers == 0 {
            f(0);
            return;
        }
        self.ensure_workers(workers);
        // Safety: erasing the closure's lifetime is sound because
        // `DoneGuard` (dropped even on unwind) blocks until every
        // participant finished with the pointer.
        let f_static: &'static (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(f) };
        let job = Job(f_static);
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.gen += 1;
            st.participants = workers;
            st.job = Some(job);
        }
        self.shared.wake.notify_all();
        let guard = DoneGuard {
            shared: &self.shared,
            workers,
        };
        f(0);
        drop(guard);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocks until every participant of the current generation reported
/// done, then resets the counter. Lives in a drop guard so the dispatcher
/// waits even when lane 0 panics — unwinding past the borrowed job
/// context while workers still use it would be undefined behaviour.
struct DoneGuard<'a> {
    shared: &'a PoolShared,
    workers: usize,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let mut done = self.shared.done.lock().expect("pool done");
        while *done < self.workers {
            done = self.shared.done_cv.wait(done).expect("pool done");
        }
        *done = 0;
    }
}

/// Body of a parked pool worker: wait for a new generation, run the job
/// for lane `idx + 1` if this worker participates, report done, re-park.
fn worker_loop(shared: &PoolShared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let (job, participants) = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.gen != seen {
                    seen = st.gen;
                    break (st.job.expect("published job"), st.participants);
                }
                st = shared.wake.wait(st).expect("pool state");
            }
        };
        if idx < participants {
            // Safety: the dispatcher blocks (DoneGuard) until this
            // worker's `done` report below, keeping the closure and its
            // borrows alive.
            let f = unsafe { &*job.0 };
            f(idx + 1);
            let mut done = shared.done.lock().expect("pool done");
            *done += 1;
            shared.done_cv.notify_one();
        }
    }
}

/// A buffered cross-shard arrival awaiting the window exchange.
struct OutEntry {
    at: Instant,
    key: EvKey,
    payload: EvPayload,
}

/// Write handle into the flat `owner × dst` outbox matrix for one owner.
struct Outbox<'a> {
    cells: SlicePtr<'a, Vec<OutEntry>>,
    base: usize,
}

impl Outbox<'_> {
    #[inline]
    fn push(&mut self, dst: usize, e: OutEntry) {
        // Safety: cell `base + dst` belongs to this owner row; only the
        // owning worker writes it during a drain phase.
        unsafe { self.cells.get_mut(self.base + dst) }.push(e);
    }
}

/// One shard's execution lane: everything needed to pop, dispatch and
/// apply events for the nodes of one shard.
struct Lane<'a> {
    shard: u32,
    nodes: SlicePtr<'a, Option<Box<dyn crate::sim::Node>>>,
    links: SlicePtr<'a, Vec<Option<crate::link::Link>>>,
    meta: SlicePtr<'a, NodeMeta>,
    shard_of: &'a [u32],
    /// Compiled node outage schedules (read-only during a run; empty when
    /// no node-fault plan is attached). Per-node progress lives in
    /// [`NodeMeta`], which this lane owns for its shard's nodes.
    faults: &'a [NodeOutageSet],
    queue: &'a mut TimerWheel<EvPayload, EvKey>,
    ctr: &'a mut ShardCounters,
    outbox: Option<Outbox<'a>>,
    scratch: Vec<Action>,
    now: Instant,
}

impl Lane<'_> {
    /// Process every pending event with `at <= until` (including chains of
    /// events the processing itself schedules inside the window).
    fn drain_window(&mut self, until: Instant) {
        while let Some((at, _)) = self.queue.peek_key() {
            if at > until {
                break;
            }
            let (at, _, payload) = self.queue.pop().expect("peeked event vanished");
            self.dispatch(at, payload);
        }
    }

    fn dispatch(&mut self, at: Instant, ev: EvPayload) {
        assert!(at >= self.now, "event scheduled in the past");
        self.now = at;
        self.ctr.last_at = at;
        self.ctr.events += 1;
        let node_id = ev.node();
        debug_assert_eq!(
            self.shard_of[node_id], self.shard,
            "event routed to the wrong shard"
        );
        // Cancelled guard timers die here, before the node is touched.
        if let EvKind::Timer(_, _, Some(guard), _) = ev.kind {
            // Safety: node (and its meta) belongs to this shard.
            let m = unsafe { self.meta.get_mut(node_id) };
            if !m.timers.invalidate(guard) {
                self.ctr.timer_skipped += 1;
                return;
            }
        }
        // Node-lifecycle faults: a down node rejects the event; a
        // completed crash-restart erases the node's state first.
        let mut tx_blocked = false;
        if !self.faults.is_empty()
            && self
                .faults
                .get(node_id)
                .is_some_and(|s| !s.windows.is_empty())
        {
            match self.fault_gate(node_id, at, &ev.kind) {
                FaultGate::Reject => return,
                FaultGate::DeliverTxBlocked => tx_blocked = true,
                FaultGate::Deliver => {}
            }
        }
        // Safety: node belongs to this shard; it is taken out for the
        // duration of the hook so re-entry panics.
        let slot = unsafe { self.nodes.get_mut(node_id) };
        let mut node = slot
            .take()
            .unwrap_or_else(|| panic!("node {node_id} re-entered during dispatch"));
        let mut actions = std::mem::take(&mut self.scratch);
        {
            // Safety: meta belongs to this shard; the node itself was moved
            // out above so no aliasing with the hook's `&mut self`.
            let m = unsafe { self.meta.get_mut(node_id) };
            let mut ctx = Ctx {
                now: at,
                node: node_id,
                actions: &mut actions,
                rng: &mut m.rng,
                next_pkt_id: &mut m.pkt_ctr,
                timers: &mut m.timers,
            };
            match ev.kind {
                EvKind::Arrive(_, port) => {
                    self.ctr.arrivals += 1;
                    let pkt = ev.pkt.expect("arrival without a packet");
                    node.on_packet(&mut ctx, port, pkt);
                }
                EvKind::Timer(_, token, _, _) => node.on_timer(&mut ctx, token),
            }
        }
        // Safety: same element as above; the previous borrow ended.
        *unsafe { self.nodes.get_mut(node_id) } = Some(node);
        self.apply_actions(node_id, &mut actions, tx_blocked);
        self.scratch = actions;
    }

    /// Decide whether an event for a fault-targeted node is delivered. Lazily
    /// advances the node through its outage schedule: a crash-restart window
    /// that has fully passed erases the node's state (and bumps its timer
    /// epoch) before anything else reaches it. All decisions depend only on
    /// the event's own `(node, at, kind)` — never on other shards — so the
    /// outcome is identical at every shard count.
    fn fault_gate(&mut self, node_id: NodeId, at: Instant, kind: &EvKind) -> FaultGate {
        let windows = &self.faults[node_id].windows;
        // Safety: the node's meta belongs to this shard.
        let m = unsafe { self.meta.get_mut(node_id) };
        // Complete every window that has fully passed.
        while (m.fault_pos as usize) < windows.len() && windows[m.fault_pos as usize].until <= at {
            let w = windows[m.fault_pos as usize];
            m.fault_pos += 1;
            if w.erase {
                m.epoch = m.epoch.wrapping_add(1);
                self.ctr.node_restarts += 1;
                // Safety: node belongs to this shard; it is taken out for
                // the duration of the restart hook only.
                let slot = unsafe { self.nodes.get_mut(node_id) };
                let mut node = slot
                    .take()
                    .unwrap_or_else(|| panic!("node {node_id} re-entered during restart"));
                node.on_restart();
                *unsafe { self.nodes.get_mut(node_id) } = Some(node);
            }
        }
        let in_window = windows
            .get(m.fault_pos as usize)
            .copied()
            .filter(|w| w.from <= at);
        if let Some(w) = in_window {
            debug_assert!(at < w.until);
            if w.erase {
                // Crashed: nothing reaches the node, timers included.
                match kind {
                    EvKind::Arrive(..) => self.ctr.node_rejected += 1,
                    EvKind::Timer(..) => self.ctr.node_timer_dropped += 1,
                }
                return FaultGate::Reject;
            }
            // Partitioned: deliveries bounce; timers still fire below, but
            // whatever they send is discarded.
            if matches!(kind, EvKind::Arrive(..)) {
                self.ctr.node_rejected += 1;
                return FaultGate::Reject;
            }
        }
        // A timer armed before the node's last crash-restart never fires.
        if let EvKind::Timer(_, _, _, armed_epoch) = *kind {
            if armed_epoch != m.epoch {
                self.ctr.node_timer_dropped += 1;
                return FaultGate::Reject;
            }
        }
        if in_window.is_some() {
            FaultGate::DeliverTxBlocked
        } else {
            FaultGate::Deliver
        }
    }

    /// Content-derived key for the next event emitted by `src`.
    #[inline]
    fn next_key(&mut self, src: NodeId) -> EvKey {
        // Safety: src is the node just dispatched on this shard.
        let m = unsafe { self.meta.get_mut(src) };
        let ctr = m.ev_ctr;
        m.ev_ctr += 1;
        EvKey::new(src as u32, ctr)
    }

    fn push_arrival(&mut self, src: NodeId, at: Instant, dest: (NodeId, usize), pkt: Packet) {
        let key = self.next_key(src);
        let payload = EvPayload {
            kind: EvKind::Arrive(dest.0, dest.1),
            pkt: Some(pkt),
        };
        let dst_shard = self.shard_of[dest.0];
        if dst_shard == self.shard {
            self.queue.schedule(at, key, payload);
        } else {
            self.ctr.xsent += 1;
            self.outbox
                .as_mut()
                .expect("cross-shard arrival without an outbox")
                .push(dst_shard as usize, OutEntry { at, key, payload });
        }
    }

    fn apply_actions(&mut self, node_id: NodeId, actions: &mut Vec<Action>, tx_blocked: bool) {
        for action in actions.drain(..) {
            match action {
                Action::Send { port, pkt } => {
                    if tx_blocked {
                        // The emitting node is partitioned: its timers run
                        // but nothing it sends reaches the network.
                        self.ctr.node_tx_dropped += 1;
                        drop(pkt);
                        continue;
                    }
                    let now = self.now;
                    // Safety: the link table row of the dispatched node
                    // belongs to this shard (links are owned by their
                    // source endpoint).
                    let ports = unsafe { self.links.get_mut(node_id) };
                    let Some(link) = ports.get_mut(port).and_then(Option::as_mut) else {
                        self.ctr.unrouted += 1;
                        continue;
                    };
                    let dest = link.to();
                    let deliveries = link.transmit(now, &pkt);
                    match (deliveries.primary, deliveries.duplicate) {
                        (Some(at), None) => self.push_arrival(node_id, at, dest, pkt),
                        (Some(at), Some(dup_at)) => {
                            // Payloads are shared buffers, so the duplicate
                            // is a header-only copy.
                            self.push_arrival(node_id, at, dest, pkt.clone());
                            self.push_arrival(node_id, dup_at, dest, pkt);
                        }
                        // Primary dropped: the duplicate takes the original
                        // packet, no clone needed.
                        (None, Some(dup_at)) => self.push_arrival(node_id, dup_at, dest, pkt),
                        (None, None) => {}
                    }
                }
                Action::Timer { at, token, guard } => {
                    let at = at.max(self.now);
                    let key = self.next_key(node_id);
                    // Safety: the arming node's meta belongs to this shard.
                    let epoch = unsafe { self.meta.get_mut(node_id) }.epoch;
                    // Timers always fire on the arming node's own shard.
                    self.queue.schedule(
                        at,
                        key,
                        EvPayload {
                            kind: EvKind::Timer(node_id, token, guard, epoch),
                            pkt: None,
                        },
                    );
                }
            }
        }
    }
}

use crate::packet::Packet;

/// Verdict of [`Lane::fault_gate`] for one event.
enum FaultGate {
    /// Deliver normally.
    Deliver,
    /// Deliver (a partitioned node's timer), but discard its sends.
    DeliverTxBlocked,
    /// Drop the event; counters were already updated.
    Reject,
}

/// Serial driver: one lane over the whole simulator. Runs every pending
/// event with `at <= limit`; leaves `sim.now` at the last dispatched
/// instant. Returns the number of events processed.
pub(crate) fn run_serial(sim: &mut Simulator, limit: Instant) -> u64 {
    let scratch = std::mem::take(&mut sim.scratch);
    let before = sim.counters[0].events;
    let mut lane = Lane {
        shard: 0,
        nodes: SlicePtr::new(&mut sim.nodes),
        links: SlicePtr::new(&mut sim.links),
        meta: SlicePtr::new(&mut sim.meta),
        shard_of: &sim.shard_of,
        faults: &sim.node_faults,
        queue: &mut sim.queues[0],
        ctr: &mut sim.counters[0],
        outbox: None,
        scratch,
        now: sim.now,
    };
    lane.drain_window(limit);
    let now = lane.now;
    let scratch = std::mem::take(&mut lane.scratch);
    drop(lane);
    sim.scratch = scratch;
    sim.now = now;
    sim.counters[0].events - before
}

/// Compute (and cache) the conservative lookahead: the global minimum
/// propagation delay over links whose endpoints live on different shards,
/// plus the per-shard-pair matrix `D⁺` of minimum ≥1-link cross-shard path
/// delays (Floyd–Warshall closure over the per-pair direct minima; the
/// diagonal holds the minimum cycle delay back to a shard). The direct
/// minima come from the simulator's maintained region-pair delays, so the
/// cost is O(region pairs + shards³), independent of the link count.
/// Panics on a zero-delay cross-shard link (see
/// [`Simulator::direct_shard_delays`]).
pub(crate) fn ensure_lookahead(sim: &mut Simulator) -> Duration {
    if let (Some(l), Some(_)) = (sim.lookahead, &sim.pair_look) {
        return l;
    }
    let nsh = sim.shards();
    let mut pair = sim.direct_shard_delays();
    let min = pair.iter().copied().min().unwrap_or(u64::MAX);
    // Transitive closure: an event processed on shard `u` can only affect
    // shard `s` through a chain of cross-shard hops (same-shard forwarding
    // legs in between only add delay), so the tightest sound bound per
    // pair is the shortest ≥1-hop path, not just the direct link minimum.
    for k in 0..nsh {
        for i in 0..nsh {
            let dik = pair[i * nsh + k];
            if dik == u64::MAX {
                continue;
            }
            for j in 0..nsh {
                let dkj = pair[k * nsh + j];
                if dkj == u64::MAX {
                    continue;
                }
                let via = dik.saturating_add(dkj);
                let cell = &mut pair[i * nsh + j];
                if via < *cell {
                    *cell = via;
                }
            }
        }
    }
    let look = Duration::from_nanos(min);
    sim.lookahead = Some(look);
    sim.pair_look = Some(pair);
    look
}

/// Inclusive window end for the lane of shard `s`, given every active
/// lane's earliest pending instant (`m(j)`, `u64::MAX` = idle) and the
/// round's global minimum `t`.
///
/// Adaptive (`pair = Some`): shard `s` may run until just before the
/// earliest instant any other shard's pending work could reach it,
/// `min_u(m_u + D⁺[u][s]) - 1`. Every term is `≥ t + min_delay`, so the
/// bound never regresses below the classic global window and the shard
/// holding `t` always makes progress. Non-adaptive (`pair = None`): the
/// classic global bound `t + look - 1`. Both are capped at `limit_n`.
#[allow(clippy::too_many_arguments)]
fn window_until(
    s: usize,
    active: &[usize],
    m: impl Fn(usize) -> u64,
    look: u64,
    pair: Option<&[u64]>,
    nsh: usize,
    t: u64,
    limit_n: u64,
) -> Instant {
    let until = match pair {
        None => t.saturating_add(look.saturating_sub(1)),
        Some(pair) => {
            let mut bound = u64::MAX;
            for (j, &u) in active.iter().enumerate() {
                let (mj, d) = (m(j), pair[u * nsh + s]);
                if mj != u64::MAX && d != u64::MAX {
                    bound = bound.min(mj.saturating_add(d));
                }
            }
            bound.saturating_sub(1)
        }
    };
    Instant::from_nanos(until.min(limit_n))
}

/// Shared raw views over the simulator's partitioned state: everything a
/// shard driver needs to build its [`Lane`] on demand.
struct LaneParts<'a> {
    nodes: SlicePtr<'a, Option<Box<dyn crate::sim::Node>>>,
    links: SlicePtr<'a, Vec<Option<crate::link::Link>>>,
    meta: SlicePtr<'a, NodeMeta>,
    shard_of: &'a [u32],
    faults: &'a [NodeOutageSet],
    queues: SlicePtr<'a, TimerWheel<EvPayload, EvKey>>,
    counters: SlicePtr<'a, ShardCounters>,
    out: SlicePtr<'a, Vec<OutEntry>>,
    nsh: usize,
}

impl<'a> LaneParts<'a> {
    /// # Safety
    /// The caller must be shard `s`'s current (sole) driver: wheel `s`,
    /// counters `s` and outbox row `s` must not be aliased elsewhere.
    unsafe fn lane(self, s: usize, scratch: Vec<Action>, now: Instant) -> Lane<'a> {
        Lane {
            shard: s as u32,
            nodes: self.nodes,
            links: self.links,
            meta: self.meta,
            shard_of: self.shard_of,
            faults: self.faults,
            queue: self.queues.get_mut(s),
            ctr: self.counters.get_mut(s),
            outbox: Some(Outbox {
                cells: self.out,
                base: s * self.nsh,
            }),
            scratch,
            now,
        }
    }
}

impl<'a> Clone for LaneParts<'a> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a> Copy for LaneParts<'a> {}

/// Parallel driver: conservative-lookahead windows over the shards that
/// own nodes. Runs every pending event with `at <= limit`; results are
/// byte-identical to [`run_serial`] at any shard count. Returns the
/// number of events processed.
///
/// Only *active* shards (those owning at least one node) take part in
/// the window protocol — a node-less shard can neither produce nor
/// receive events, so `--shards 8` on a two-region topology pays for
/// two lanes, not eight. When the machine has a single core (or a
/// single shard is active) the same windowed algorithm runs on one
/// thread with no barriers: the event order is fixed by `(at, key)`,
/// not by which thread drains which lane, so the serial interleaving is
/// byte-identical to the threaded one.
pub(crate) fn run_parallel(sim: &mut Simulator, limit: Instant) -> u64 {
    sim.ensure_placement();
    let look = ensure_lookahead(sim).nanos();
    let nsh = sim.shards();
    let before: u64 = sim.counters.iter().map(|c| c.events).sum();
    let limit_n = limit.nanos();
    let start_now = sim.now;
    let adaptive = sim.adaptive;

    let active = sim.active_shards();

    let pair_look: &[u64] = sim.pair_look.as_deref().expect("lookahead just computed");
    let pair = adaptive.then_some(pair_look);
    let shard_of: &[u32] = &sim.shard_of;
    let faults: &[NodeOutageSet] = &sim.node_faults;
    let nodes = SlicePtr::new(&mut sim.nodes);
    let links = SlicePtr::new(&mut sim.links);
    let meta = SlicePtr::new(&mut sim.meta);
    let queues = SlicePtr::new(&mut sim.queues);
    let counters = SlicePtr::new(&mut sim.counters);
    let mut outcells: Vec<Vec<OutEntry>> = (0..nsh * nsh).map(|_| Vec::new()).collect();
    let out = SlicePtr::new(&mut outcells);
    let parts = LaneParts {
        nodes,
        links,
        meta,
        shard_of,
        faults,
        queues,
        counters,
        out,
        nsh,
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if active.len() == 1 {
        // All nodes on one shard: no cross-shard traffic is possible, so
        // the window machinery degenerates to a straight drain.
        let s = active[0];
        // Safety: single-threaded, sole driver of shard `s`.
        let mut lane = unsafe { parts.lane(s, Vec::new(), start_now) };
        lane.drain_window(limit);
    } else if !active.is_empty() && cores == 1 {
        run_windows_serial(parts, &active, look, pair, limit_n, start_now);
    } else if !active.is_empty() {
        let pool = sim.pool.get_or_insert_with(ShardPool::new);
        run_windows_threaded(parts, &active, look, pair, limit_n, start_now, pool);
    }

    let last = sim
        .counters
        .iter()
        .map(|c| c.last_at)
        .max()
        .unwrap_or(start_now);
    if last > sim.now {
        sim.now = last;
    }
    let after: u64 = sim.counters.iter().map(|c| c.events).sum();
    after - before
}

/// The windowed algorithm on one thread: drain every active lane's
/// window, exchange, repeat. Identical event order to the threaded
/// driver (lanes share no state and the order is key-derived), none of
/// the barrier or thread-spawn overhead — the right shape whenever the
/// OS would serialize the lanes anyway.
fn run_windows_serial(
    parts: LaneParts<'_>,
    active: &[usize],
    look: u64,
    pair: Option<&[u64]>,
    limit_n: u64,
    start_now: Instant,
) {
    let mut nows = vec![start_now; active.len()];
    let mut scratches: Vec<Vec<Action>> = (0..active.len()).map(|_| Vec::new()).collect();
    let mut mins = vec![u64::MAX; active.len()];
    loop {
        let mut t = u64::MAX;
        for (i, &s) in active.iter().enumerate() {
            // Safety: single-threaded; exclusive access to every wheel.
            mins[i] = unsafe { parts.queues.get_mut(s) }
                .peek_key()
                .map_or(u64::MAX, |(at, _)| at.nanos());
            t = t.min(mins[i]);
        }
        if t == u64::MAX || t > limit_n {
            break;
        }
        for (i, &s) in active.iter().enumerate() {
            let until = window_until(s, active, |j| mins[j], look, pair, parts.nsh, t, limit_n);
            // Safety: single-threaded, sole driver of shard `s`; the lane
            // is dropped before the next one is built.
            let mut lane = unsafe { parts.lane(s, std::mem::take(&mut scratches[i]), nows[i]) };
            lane.drain_window(until);
            nows[i] = lane.now;
            scratches[i] = std::mem::take(&mut lane.scratch);
        }
        // Exchange: every window's cross-shard arrivals land strictly
        // after the destination shard's window just drained.
        for &w in active {
            for &s in active {
                // Safety: single-threaded; cells and destination wheels
                // are touched one at a time.
                let cell = unsafe { parts.out.get_mut(w * parts.nsh + s) };
                for e in cell.drain(..) {
                    unsafe { parts.counters.get_mut(s) }.xrecv += 1;
                    unsafe { parts.queues.get_mut(s) }.schedule(e.at, e.key, e.payload);
                }
            }
        }
    }
}

/// Lane-per-active-shard windows on the persistent pool, synchronized
/// with a spin barrier. The calling thread drives lane 0; pool workers
/// drive the rest and park when the call completes.
fn run_windows_threaded(
    parts: LaneParts<'_>,
    active: &[usize],
    look: u64,
    pair: Option<&[u64]>,
    limit_n: u64,
    start_now: Instant,
    pool: &mut ShardPool,
) {
    let mins: Vec<AtomicU64> = (0..active.len())
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let barrier = SpinBarrier::new(active.len());
    let mins = &mins;
    let barrier = &barrier;

    let worker = move |i: usize| {
        let s = active[i];
        // Safety: this worker is shard `s`'s sole driver; node/link/
        // meta access inside the lane follows the shard partition.
        let mut lane = unsafe { parts.lane(s, Vec::new(), start_now) };
        loop {
            let local = lane.queue.peek_key().map_or(u64::MAX, |(at, _)| at.nanos());
            mins[i].store(local, Ordering::Release);
            barrier.wait();
            // Every worker computes the same `t`, so they all either
            // enter the window or leave the loop together.
            let t = mins
                .iter()
                .map(|m| m.load(Ordering::Acquire))
                .min()
                .expect("at least one shard");
            if t == u64::MAX || t > limit_n {
                break;
            }
            let until = window_until(
                s,
                active,
                |j| mins[j].load(Ordering::Acquire),
                look,
                pair,
                parts.nsh,
                t,
                limit_n,
            );
            lane.drain_window(until);
            barrier.wait();
            // Exchange: pull this shard's inbox column. Each window's
            // cross-shard arrivals land strictly after this shard's
            // window just drained.
            for &w in active {
                // Safety: column `s` cells are read by worker `s` only,
                // in the exchange phase only.
                let cell = unsafe { parts.out.get_mut(w * parts.nsh + s) };
                for e in cell.drain(..) {
                    lane.ctr.xrecv += 1;
                    lane.queue.schedule(e.at, e.key, e.payload);
                }
            }
            // No third barrier: nobody can re-enter a drain phase (and
            // write outboxes again) until this worker passes the next
            // window's min barrier.
        }
    };
    pool.run(active.len(), &worker);
}

//! The discrete-event core of the fleet simulator.
//!
//! [`EventQueue`] is a binary-heap priority queue keyed by
//! `(sim_time, order, seq)`: `sim_time` is the simulated nanosecond the
//! event fires at, [`Order`] says where it sorts among the events due at
//! that nanosecond, and `seq` is a monotonically increasing insertion
//! ordinal. An event scheduled with [`EventQueue::schedule`] takes the
//! order `(now, seq)`: the simulated instant it was scheduled at, then its
//! insertion ordinal. The composite key gives the two determinism rules
//! every simulation built on this queue inherits:
//!
//! 1. **Events pop in non-decreasing timestamp order** — simulated time
//!    never runs backwards.
//! 2. **Same-timestamp events pop in insertion order** (FIFO) — ties are
//!    broken by when and in which order the events were scheduled, never
//!    by payload contents or heap internals, so a run's event
//!    interleaving is a pure function of *when things were scheduled*,
//!    not of how the heap happened to rebalance. (`now` only grows, so
//!    for events scheduled with [`EventQueue::schedule`] "scheduling
//!    instant, then `seq`" is exactly insertion order.)
//!
//! Together these make same-seed runs byte-identical: the handlers see the
//! exact same event sequence every time.
//!
//! [`EventQueue::schedule_ordered`] places an event at an explicit
//! [`Order`]. The fleet uses it for an event that stands in for a chain of
//! events it never schedules (a decode run's completion, see
//! [`crate::cluster`]): the event sorts where the last link of that chain
//! would have sorted.
//!
//! [`EventQueue::schedule`] returns an [`EventToken`] that
//! [`EventQueue::cancel`] consumes; a cancelled event **never fires** —
//! its payload is dropped immediately and its heap entry is skipped on
//! pop. This is how the fleet retracts keep-alive expiries when work
//! lands on an idle node, retracts a crashed cold start's pending
//! stage completions, and moves a decode run's completion.
//!
//! [`FleetEvent`] is the typed event taxonomy of the fleet layer
//! ([`crate::cluster`]): nodes, the scheduler, and the registry interact
//! *only* by scheduling these events against the shared queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the queue's `u64` seq keys. Seqs are dense
/// monotone counters, so a single Fibonacci multiply mixes them plenty —
/// and at millions of events per run, SipHash on every schedule/pop is
/// measurable wall-clock.
#[derive(Debug, Default)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists for trait
        // completeness.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type SeqMap<E> = HashMap<u64, E, BuildHasherDefault<SeqHasher>>;

/// Handle to one scheduled event, used to cancel it before it fires.
///
/// Tokens are unique per [`EventQueue`] for its whole lifetime (they wrap
/// the event's insertion `seq`), so a stale token can never cancel a
/// different, later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// Where an event sorts among the events due at the same nanosecond:
/// first by the simulated instant it was scheduled at, then by `tie`.
///
/// [`EventQueue::schedule`] assigns `(now, seq + 1)`, so ordinary events
/// sort in insertion order; tie `0` sorts before every ordinary event
/// scheduled at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Order {
    /// Simulated instant the event was (or stands in for one) scheduled
    /// at, ns.
    pub sched_ns: u64,
    /// Rank among the events scheduled at `sched_ns`.
    pub tie: u64,
}

/// Deterministic discrete-event priority queue keyed by
/// `(sim_time, order, seq)`.
///
/// See the [module docs](self) for the two ordering rules. `E` is the
/// event payload type; the queue imposes no trait bounds on it beyond the
/// implicit `Sized`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap over `(fire_time_ns, order, seq)`.
    heap: BinaryHeap<Reverse<(u64, Order, u64)>>,
    /// Payloads of *pending* events by `seq`; cancellation removes the
    /// payload, leaving a tombstone key in the heap that `pop` skips.
    payloads: SeqMap<E>,
    next_seq: u64,
    /// Latest fire time popped so far: the instant new events are
    /// scheduled at.
    now: u64,
    /// Order of the event popped last.
    current: Order,
    scheduled: u64,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: SeqMap::default(),
            next_seq: 0,
            now: 0,
            current: Order::default(),
            scheduled: 0,
            cancelled: 0,
        }
    }

    /// Schedules `event` to fire at simulated nanosecond `t_ns` and
    /// returns its cancellation token. Events scheduled at the same
    /// `t_ns` fire in the order they were scheduled.
    pub fn schedule(&mut self, t_ns: u64, event: E) -> EventToken {
        let order = self.next_order();
        self.schedule_ordered(t_ns, order, event)
    }

    /// Schedules `event` to fire at `t_ns`, sorting at `order` among the
    /// events due at the same nanosecond.
    pub fn schedule_ordered(&mut self, t_ns: u64, order: Order, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Reverse((t_ns, order, seq)));
        self.payloads.insert(seq, event);
        EventToken(seq)
    }

    /// The order [`EventQueue::schedule`] would give the next event.
    pub fn next_order(&self) -> Order {
        Order {
            sched_ns: self.now,
            tie: self.next_seq + 1,
        }
    }

    /// Cancels a pending event so it never fires. Returns `true` if the
    /// event was still pending (and is now retracted), `false` if it had
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let retracted = self.payloads.remove(&token.0).is_some();
        if retracted {
            self.cancelled += 1;
        }
        retracted
    }

    /// Whether the event behind `token` is still pending.
    pub fn is_pending(&self, token: EventToken) -> bool {
        self.payloads.contains_key(&token.0)
    }

    /// Pops the next event as `(fire_time_ns, event)`, skipping cancelled
    /// entries. Returns `None` when no pending events remain.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        while let Some(Reverse((t, order, seq))) = self.heap.pop() {
            if let Some(event) = self.payloads.remove(&seq) {
                self.now = self.now.max(t);
                self.current = order;
                return Some((t, event));
            }
            // Tombstone of a cancelled event: skip.
        }
        None
    }

    /// Fire time and order of the next pending event, if any.
    pub fn peek_key(&mut self) -> Option<(u64, Order)> {
        while let Some(&Reverse((t, order, seq))) = self.heap.peek() {
            if self.payloads.contains_key(&seq) {
                return Some((t, order));
            }
            self.heap.pop();
        }
        None
    }

    /// Makes an event kept outside the queue — one of a stream that is
    /// already in firing order — the current event, as if popped: it
    /// fires at `t_ns` with `order`, and events scheduled while it is
    /// handled are scheduled at `t_ns`. The caller fires it only when it
    /// sorts before [`EventQueue::peek_key`].
    pub fn fire_external(&mut self, t_ns: u64, order: Order) {
        self.now = self.now.max(t_ns);
        self.current = order;
    }

    /// The instant new events are scheduled at: the latest fire time
    /// popped so far (0 before the first pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The [`Order`] of the event popped last.
    pub fn current(&self) -> Order {
        self.current
    }

    /// Number of pending (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled
    }

    /// Total events cancelled before firing.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled
    }
}

/// The fleet simulator's typed event taxonomy. Every state transition in
/// [`crate::cluster`] is driven by exactly one of these firing; handlers
/// communicate only by scheduling further events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Request `req` (a trace index) arrives at the global queue.
    Arrival {
        /// Trace index of the arriving request.
        req: usize,
    },
    /// Node `node` should re-examine its run queue and start an iteration
    /// if it is warm and not already iterating.
    Route {
        /// Node index.
        node: usize,
    },
    /// The registry fetch stage of node `node`'s in-flight cold start
    /// completed (Medusa cache-miss starts only); the restore stage is
    /// already on the queue. Carries the start's epoch: a crash bumps the
    /// node epoch, making this event stale.
    RegistryFetchDone {
        /// Node index.
        node: usize,
        /// Cold-start epoch the fetch belongs to.
        epoch: u32,
    },
    /// The final (restore) stage of node `node`'s cold start completed —
    /// the node is ready to serve. Same epoch staleness guard as
    /// [`FleetEvent::RegistryFetchDone`].
    ColdStartStageDone {
        /// Node index.
        node: usize,
        /// Cold-start epoch the stage belongs to.
        epoch: u32,
    },
    /// Node `node`'s keep-alive countdown ran out; if still armed (the
    /// token is cancelled whenever work lands on the node) the node scales
    /// to zero.
    KeepAliveExpiry {
        /// Node index.
        node: usize,
    },
    /// Node `node` crashes mid-cold-start (same epoch guard as the stage
    /// events).
    NodeCrash {
        /// Node index.
        node: usize,
        /// Cold-start epoch the crash belongs to.
        epoch: u32,
    },
    /// Autoscaler evaluation: either the periodic backlog tick (only
    /// scheduled when [`crate::AutoscalerConfig::eval_interval_s`] is
    /// set) or a predictive prewarm the estimator scheduled ahead of a
    /// forecast arrival (only when [`crate::ClusterSpec::prewarm`] is
    /// set — both knobs default off, keeping the event schedule
    /// byte-identical).
    ScaleDecision {
        /// `Some(model)`: prewarm that model's cold start if it has no
        /// live node. `None`: the plain periodic backlog re-evaluation.
        prewarm: Option<u32>,
    },
    /// A helper node of a pipeline-parallel cold start finished restoring
    /// its contiguous MAF2 shard range and hands its output to the head;
    /// the helper then releases back to cold. Same epoch staleness guard
    /// as [`FleetEvent::ColdStartStageDone`] (a crash of any pipeline
    /// participant bumps epochs and retracts these via their tokens).
    PipelineShardDone {
        /// Helper node index.
        node: usize,
        /// Head node the shard streams to.
        head: usize,
        /// Cold-start epoch (of the helper) the shard belongs to.
        epoch: u32,
    },
    /// Node `node` finished a serving iteration: a prefill, or a decode
    /// run — one or more batched decode steps with the same batch. The
    /// event fires at the boundary the node must next act on: the step in
    /// which a sequence finishes, a pending request's prefill, or a drain
    /// that can place work.
    IterationDone {
        /// Node index.
        node: usize,
    },
}

impl FleetEvent {
    /// Number of variants; the length of per-kind tables.
    pub const KINDS: usize = 9;

    /// Variant names, indexed by [`FleetEvent::kind`].
    pub const KIND_NAMES: [&'static str; FleetEvent::KINDS] = [
        "Arrival",
        "Route",
        "RegistryFetchDone",
        "ColdStartStageDone",
        "KeepAliveExpiry",
        "NodeCrash",
        "ScaleDecision",
        "PipelineShardDone",
        "IterationDone",
    ];

    /// Index of this event's variant in [`FleetEvent::KIND_NAMES`].
    pub fn kind(&self) -> usize {
        match self {
            FleetEvent::Arrival { .. } => 0,
            FleetEvent::Route { .. } => 1,
            FleetEvent::RegistryFetchDone { .. } => 2,
            FleetEvent::ColdStartStageDone { .. } => 3,
            FleetEvent::KeepAliveExpiry { .. } => 4,
            FleetEvent::NodeCrash { .. } => 5,
            FleetEvent::ScaleDecision { .. } => 6,
            FleetEvent::PipelineShardDone { .. } => 7,
            FleetEvent::IterationDone { .. } => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_timestamp_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        let keep = q.schedule(10, "keep");
        let drop_ = q.schedule(10, "drop");
        assert!(q.cancel(drop_));
        assert!(!q.cancel(drop_), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((10, "keep")));
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(keep), "already fired");
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn peek_key_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let head = q.schedule(5, "head");
        q.schedule(9, "tail");
        q.cancel(head);
        assert_eq!(
            q.peek_key(),
            Some((
                9,
                Order {
                    sched_ns: 0,
                    tie: 2
                }
            ))
        );
        assert_eq!(q.pop(), Some((9, "tail")));
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn same_timestamp_pops_by_scheduling_instant_then_tie() {
        let mut q = EventQueue::new();
        q.schedule(50, "init");
        q.schedule(10, "tick");
        assert_eq!(q.pop(), Some((10, "tick")));
        assert_eq!(q.now(), 10);
        // Scheduled at 10: after the event scheduled at 0.
        let late = q.schedule(50, "late");
        // Stands in for an event scheduled at 5: before both at its tie,
        // and tie 0 sorts before ordinary events of the same instant.
        q.schedule_ordered(
            50,
            Order {
                sched_ns: 10,
                tie: 0,
            },
            "first-at-10",
        );
        let early = q.schedule_ordered(
            50,
            Order {
                sched_ns: 5,
                tie: 0,
            },
            "at-5",
        );
        assert!(q.is_pending(late) && q.is_pending(early));
        assert_eq!(q.pop(), Some((50, "init")));
        assert_eq!(q.current().sched_ns, 0);
        assert_eq!(q.pop(), Some((50, "at-5")));
        assert_eq!(q.pop(), Some((50, "first-at-10")));
        assert_eq!(q.pop(), Some((50, "late")));
        assert!(!q.is_pending(late));
    }

    #[test]
    fn kinds_cover_every_variant_once() {
        let events = [
            FleetEvent::Arrival { req: 0 },
            FleetEvent::Route { node: 0 },
            FleetEvent::RegistryFetchDone { node: 0, epoch: 0 },
            FleetEvent::ColdStartStageDone { node: 0, epoch: 0 },
            FleetEvent::KeepAliveExpiry { node: 0 },
            FleetEvent::NodeCrash { node: 0, epoch: 0 },
            FleetEvent::ScaleDecision { prewarm: None },
            FleetEvent::PipelineShardDone {
                node: 0,
                head: 0,
                epoch: 0,
            },
            FleetEvent::IterationDone { node: 0 },
        ];
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.kind(), k);
            assert!(format!("{e:?}").starts_with(FleetEvent::KIND_NAMES[k]));
        }
    }

    #[test]
    fn distinct_time_insertion_order_is_irrelevant() {
        // Two schedules of the same (time, payload) set in different
        // insertion orders pop identically when all times are distinct.
        let times = [40u64, 10, 30, 20, 50];
        let mut fwd = EventQueue::new();
        for &t in &times {
            fwd.schedule(t, t);
        }
        let mut rev = EventQueue::new();
        for &t in times.iter().rev() {
            rev.schedule(t, t);
        }
        let drain = |q: &mut EventQueue<u64>| {
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        assert_eq!(drain(&mut fwd), drain(&mut rev));
    }
}

//! The ABD (Attiya–Bar-Noy–Dolev) register in an asynchronous message-passing
//! system with crash failures, as a discrete-event simulation.
//!
//! One state machine, [`Abd`], covers every flavour the experiments use. It has
//! two axes:
//!
//! * **Write-back** (the `WRITE_BACK` type parameter). The read of standard ABD
//!   queries every process, waits for a majority of `(seq, value)` replies, picks
//!   the largest pair, *writes it back* to a majority, and only then returns. The
//!   write-back phase is what makes ABD linearizable. [`AbdCluster`] (`Abd<true>`)
//!   is the correct protocol of Theorem 14; [`FaultyAbdCluster`] (`Abd<false>`)
//!   returns straight after the query. It is the negative control: two sequential
//!   reads can observe "new then old" while a write is only partially propagated,
//!   and the checkers of [`rlt_spec`] must reject such histories. Being a distinct
//!   type, the faulty flavour cannot be passed where Theorem 14 is checked.
//! * **Writers** (a runtime field). [`Abd::new`] builds the single-writer register:
//!   the designated writer increments its sequence number `seq`, sends
//!   `WriteReq(seq, v)` to every process, and returns once a majority has
//!   acknowledged. [`Abd::multi_writer`] lets every process write: a write first
//!   runs a query phase (the same `ReadReq`/`ReadReply` exchange as a read) and
//!   then propagates a sequence number above everything it saw, with the writer's
//!   process id packed into the low bits as a deterministic tie-breaker. The
//!   write-back-free multi-writer flavour is the fuzzer's multi-writer stretch
//!   target, where inversions can involve *competing* writers.
//!
//! Every flavour speaks the same wire language ([`AbdMessage`] / [`Envelope`]) and
//! runs on the same delivery core ([`MessageCluster`]), so every
//! [`crate::adversary::DeliveryAdversary`] and recorded [`crate::delivery::Schedule`]
//! applies to all of them. The simulation assumes fewer than half of the processes
//! crash (the standard ABD assumption); the delivery order of messages is entirely
//! under the caller's control, which plays the role of the adversary — either
//! directly through [`Abd::deliver`], through the shared random delivery of
//! [`MessageCluster`], or through a [`crate::adversary::DeliveryAdversary`].

use crate::analyze::ClusterModel;
use crate::delivery::{InflightQueue, MessageCluster};
use crate::faults::{RetryPolicy, SimNet};
use rlt_spec::{History, OpId, OpKind, Operation, ProcessId, RegisterId, Time};
use std::collections::{BTreeMap, BTreeSet};

pub use crate::delivery::{AbdMessage, Envelope};

/// Register id of the correct single-writer cluster in recorded histories.
pub const ABD_REGISTER: RegisterId = RegisterId(400);

/// Register id of the write-back-free single-writer cluster in recorded histories.
pub const FAULTY_REGISTER: RegisterId = RegisterId(401);

/// Register id of the multi-writer clusters (either flavour) in recorded histories.
pub const MW_REGISTER: RegisterId = RegisterId(402);

/// Correct ABD: reads write back before responding (Theorem 14).
pub type AbdCluster = Abd<true>;

/// ABD with the read write-back removed: **not** linearizable. Retries (see
/// [`Abd::with_retries`]) do not fix the missing write-back — they only keep
/// operations from wedging on lossy links, which is precisely what lets the
/// inversion surface under partitions instead of hiding behind a stuck read.
pub type FaultyAbdCluster = Abd<false>;

/// Bits of a packed multi-writer sequence number reserved for the writer's id.
const PID_BITS: u32 = 6;

/// Packs `(counter, writer)` into a totally ordered sequence number: counters
/// dominate, the writer id breaks ties deterministically.
fn pack_seq(counter: u64, writer: ProcessId) -> u64 {
    (counter << PID_BITS) | writer.0 as u64
}

/// The counter half of a packed sequence number.
fn seq_counter(seq: u64) -> u64 {
    seq >> PID_BITS
}

#[derive(Debug, Clone)]
enum Client {
    Idle,
    /// Multi-writer write phase 1: majority query for the highest stored `seq`.
    WriteQuery {
        op: OpId,
        rid: u64,
        value: i64,
        replies: BTreeMap<usize, (u64, i64)>,
    },
    /// Write propagation of `(seq, value)` to a majority.
    Writing {
        op: OpId,
        seq: u64,
        value: i64,
        acks: BTreeSet<usize>,
    },
    /// Read phase 1: majority query.
    ReadQuery {
        op: OpId,
        rid: u64,
        replies: BTreeMap<usize, (u64, i64)>,
    },
    /// Read phase 2 (write-back flavour only): majority write-back of the chosen pair.
    WriteBack {
        op: OpId,
        rid: u64,
        seq: u64,
        value: i64,
        acks: BTreeSet<usize>,
    },
}

impl Client {
    /// The request the current phase broadcasts (`None` when idle).
    fn request(&self) -> Option<AbdMessage> {
        match *self {
            Client::Idle => None,
            Client::WriteQuery { rid, .. } | Client::ReadQuery { rid, .. } => {
                Some(AbdMessage::ReadReq { rid })
            }
            Client::Writing { seq, value, .. } => Some(AbdMessage::WriteReq { seq, value }),
            Client::WriteBack {
                rid, seq, value, ..
            } => Some(AbdMessage::WriteBackReq { rid, seq, value }),
        }
    }

    /// `true` if replica `p` has already answered the current phase.
    fn answered(&self, p: usize) -> bool {
        match self {
            Client::Idle => true,
            Client::WriteQuery { replies, .. } | Client::ReadQuery { replies, .. } => {
                replies.contains_key(&p)
            }
            Client::Writing { acks, .. } | Client::WriteBack { acks, .. } => acks.contains(&p),
        }
    }
}

/// A simulated ABD cluster of `n` processes implementing one register; see the
/// [module docs](self) for the two axes. Use the [`AbdCluster`] and
/// [`FaultyAbdCluster`] aliases rather than naming `WRITE_BACK` directly.
///
/// All network and failure behavior — the in-flight queue, crashes and recoveries,
/// partitions, injected faults, the virtual clock, and (when enabled with
/// [`Abd::with_retries`]) timeout-driven client retransmission — lives in the
/// embedded [`SimNet`]; this type holds only the protocol state machines.
#[derive(Debug)]
pub struct Abd<const WRITE_BACK: bool> {
    n: usize,
    writer: ProcessId,
    multi_writer: bool,
    /// Replica state: the stored `(seq, value)` of each process. This is the
    /// *persisted* state: it survives a crash, so a recovered replica rejoins with
    /// the `(timestamp, value)` it had when it failed.
    replicas: Vec<(u64, i64)>,
    clients: Vec<Client>,
    net: SimNet,
    next_op: u64,
    next_rid: u64,
    /// The single writer's plain sequence counter (multi-writer clusters pack
    /// per-write sequence numbers instead).
    writer_seq: u64,
    ops: Vec<Operation<i64>>,
}

impl<const WRITE_BACK: bool> Abd<WRITE_BACK> {
    /// Creates a single-writer cluster of `n >= 3` processes; `writer` is the only
    /// process allowed to write the register. The register initially holds `0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `writer` is out of range.
    #[must_use]
    pub fn new(n: usize, writer: ProcessId) -> Self {
        assert!(n >= 3, "ABD needs at least three processes");
        assert!(writer.0 < n, "writer out of range");
        Abd {
            n,
            writer,
            multi_writer: false,
            replicas: vec![(0, 0); n],
            clients: vec![Client::Idle; n],
            net: SimNet::new(n),
            next_op: 0,
            next_rid: 0,
            writer_seq: 0,
            ops: Vec::new(),
        }
    }

    /// Creates a multi-writer cluster of `3 <= n <= 64` processes: every process
    /// may write (see [`Abd::start_write_by`]); plain [`Abd::start_write`] writes
    /// as process 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n > 64` (the packed-sequence tie-breaker reserves six
    /// bits for the writer id).
    #[must_use]
    pub fn multi_writer(n: usize) -> Self {
        assert!(n <= 1 << PID_BITS, "writer id does not fit the seq packing");
        Abd {
            multi_writer: true,
            ..Self::new(n, ProcessId(0))
        }
    }

    /// Enables timeout-driven client retry under `policy`: a client whose protocol
    /// phase stalls (lost, delayed, or partitioned traffic) re-broadcasts that phase's
    /// requests with bounded exponential backoff when virtual time advances past its
    /// timeout. Without this, the cluster's behavior is bit-identical to the
    /// retry-free original.
    #[must_use]
    pub fn with_retries(mut self, policy: RetryPolicy) -> Self {
        self.net.set_retry(policy);
        self
    }

    /// The [`ClusterModel`] the static analyzer may assume for this cluster,
    /// derived from its configuration and retry policy.
    #[must_use]
    pub fn model(&self) -> ClusterModel {
        ClusterModel {
            processes: Some(self.n),
            writer: Some(self.writer),
            multi_writer: Some(self.multi_writer),
            write_backs: Some(WRITE_BACK),
            retries: self.net.retry_policy().is_some(),
        }
    }

    /// Majority threshold (`⌊n/2⌋ + 1`).
    #[must_use]
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    fn register(&self) -> RegisterId {
        match (self.multi_writer, WRITE_BACK) {
            (true, _) => MW_REGISTER,
            (false, true) => ABD_REGISTER,
            (false, false) => FAULTY_REGISTER,
        }
    }

    fn tick(&mut self) -> Time {
        self.net.tick()
    }

    /// Routes a message through the fault layer: dropped (and counted) if the
    /// destination has crashed, parked if the link is partitioned, in flight
    /// otherwise.
    fn send(&mut self, from: ProcessId, to: ProcessId, message: AbdMessage) {
        self.net.send(Envelope { from, to, message });
    }

    fn broadcast(&mut self, from: ProcessId, message: AbdMessage) {
        for to in 0..self.n {
            self.send(from, ProcessId(to), message.clone());
        }
    }

    /// Marks a process as crashed (fail-stop): it issues no further protocol steps,
    /// and its in-flight traffic — messages it sent as well as messages addressed to
    /// it — is dropped from the network. Its pending operation (if any) therefore
    /// stays pending forever; it can never retroactively complete.
    pub fn crash(&mut self, p: ProcessId) {
        self.net.crash(p);
    }

    /// Recovers a crashed process: it rejoins with its *persisted* replica state (the
    /// `(seq, value)` pair survives the crash) and an idle client. Traffic of the
    /// crashed incarnation stays purged, and an operation that was pending at the
    /// crash stays pending forever — recovery starts a fresh incarnation, it does not
    /// resume the old one. Returns `false` (a no-op) if `p` was not crashed.
    pub fn recover(&mut self, p: ProcessId) -> bool {
        if !self.net.recover(p) {
            return false;
        }
        self.clients[p.0] = Client::Idle;
        true
    }

    /// `true` if `p` is in range, alive and idle.
    fn can_invoke(&self, p: ProcessId) -> bool {
        p.0 < self.n && !self.is_crashed(p) && self.is_idle(p)
    }

    /// Invokes a write of `value` by the designated writer.
    ///
    /// # Panics
    ///
    /// Panics if the writer already has an operation in progress or has crashed.
    pub fn start_write(&mut self, value: i64) -> OpId {
        let w = self.writer;
        assert!(!self.is_crashed(w), "the writer has crashed");
        assert!(
            self.is_idle(w),
            "the writer already has an operation in progress"
        );
        self.begin_write(w, value)
    }

    /// Invokes a write of `value` by process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` may not write (a single-writer cluster and `p` is not the
    /// writer), already has an operation in progress, has crashed, or is out of
    /// range.
    pub fn start_write_by(&mut self, p: ProcessId, value: i64) -> OpId {
        assert!(
            self.multi_writer || p == self.writer,
            "process {p} is not the writer"
        );
        self.assert_can_invoke(p);
        self.begin_write(p, value)
    }

    /// Invokes a read by process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has an operation in progress, has crashed, or is out of
    /// range.
    pub fn start_read(&mut self, p: ProcessId) -> OpId {
        self.assert_can_invoke(p);
        let op = self.invoke(p, OpKind::Read(None));
        self.next_rid += 1;
        let rid = self.next_rid;
        self.enter(
            p,
            Client::ReadQuery {
                op,
                rid,
                replies: BTreeMap::new(),
            },
        );
        op
    }

    fn assert_can_invoke(&self, p: ProcessId) {
        assert!(p.0 < self.n, "process out of range");
        assert!(!self.is_crashed(p), "process {p} has crashed");
        assert!(
            self.is_idle(p),
            "process {p} already has an operation in progress"
        );
    }

    /// Records the invocation of an operation of `kind` by `p`.
    fn invoke(&mut self, p: ProcessId, kind: OpKind<i64>) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let t = self.tick();
        self.ops.push(Operation {
            id: op,
            process: p,
            register: self.register(),
            kind,
            invoked_at: t,
            responded_at: None,
        });
        op
    }

    fn begin_write(&mut self, p: ProcessId, value: i64) -> OpId {
        let op = self.invoke(p, OpKind::Write(value));
        let phase = if self.multi_writer {
            self.next_rid += 1;
            Client::WriteQuery {
                op,
                rid: self.next_rid,
                value,
                replies: BTreeMap::new(),
            }
        } else {
            self.writer_seq += 1;
            Client::Writing {
                op,
                seq: self.writer_seq,
                value,
                acks: BTreeSet::new(),
            }
        };
        self.enter(p, phase);
        op
    }

    /// Moves `p`'s client into a new protocol phase and broadcasts its request.
    fn enter(&mut self, p: ProcessId, phase: Client) {
        let request = phase.request().expect("a protocol phase has a request");
        self.clients[p.0] = phase;
        self.broadcast(p, request);
        // New protocol phase, fresh timeout from attempt zero.
        self.net.arm_retry(p);
    }

    /// Completes `p`'s operation `op`.
    fn finish(&mut self, p: ProcessId, op: OpId, read_value: Option<i64>) {
        self.clients[p.0] = Client::Idle;
        self.net.cancel_retry(p);
        let t = self.tick();
        let rec = self
            .ops
            .iter_mut()
            .find(|o| o.id == op)
            .expect("operation exists");
        rec.responded_at = Some(t);
        if let Some(v) = read_value {
            rec.kind = OpKind::Read(Some(v));
        }
    }

    /// The in-flight messages, for adversaries that want to pick precisely.
    ///
    /// Slot indices are **index-stable**: delivering one message never reindexes the
    /// others, so an adversary may hold slot indices across deliveries. A slot is only
    /// invalidated when its own envelope is removed — delivered, or purged because an
    /// endpoint crashed — after which the slot may be reused by a later send. See
    /// [`InflightQueue`] for the full contract.
    #[must_use]
    pub fn inflight(&self) -> &InflightQueue {
        self.net.queue()
    }

    /// Delivers the in-flight message at `slot`, processing it at its destination.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free or out of bounds.
    pub fn deliver(&mut self, slot: usize) {
        let Envelope { from, to, message } = self.net.take_slot(slot);
        debug_assert!(
            !self.is_crashed(to),
            "messages to crashed processes are purged on crash"
        );
        self.tick();
        let n = self.n;
        match message {
            AbdMessage::WriteReq { seq, value } => {
                self.store(to, seq, value);
                self.send(to, from, AbdMessage::WriteAck { seq });
            }
            AbdMessage::WriteBackReq { rid, seq, value } => {
                self.store(to, seq, value);
                self.send(to, from, AbdMessage::WriteBackAck { rid });
            }
            AbdMessage::ReadReq { rid } => {
                let (seq, value) = self.replicas[to.0];
                self.send(to, from, AbdMessage::ReadReply { rid, seq, value });
            }
            AbdMessage::WriteAck { seq } => {
                let current =
                    matches!(self.clients[to.0], Client::Writing { seq: s, .. } if s == seq);
                self.on_ack(to, from, current);
            }
            AbdMessage::WriteBackAck { rid } => {
                let current =
                    matches!(self.clients[to.0], Client::WriteBack { rid: r, .. } if r == rid);
                self.on_ack(to, from, current);
            }
            AbdMessage::ReadReply { rid, seq, value } => {
                // A reply answers either a read's query or a multi-writer write's
                // query phase; the client state (one operation in progress at a
                // time) plus the rid disambiguates.
                let (op, write, replies) = match &mut self.clients[to.0] {
                    Client::WriteQuery {
                        op,
                        rid: pending,
                        value,
                        replies,
                    } if *pending == rid => (*op, Some(*value), replies),
                    Client::ReadQuery {
                        op,
                        rid: pending,
                        replies,
                    } if *pending == rid => (*op, None, replies),
                    _ => return,
                };
                replies.insert(from.0, (seq, value));
                if replies.len() <= n / 2 {
                    return;
                }
                let (best_seq, best_value) =
                    *replies.values().max().expect("majority of replies present");
                match write {
                    Some(value) => self.enter(
                        to,
                        Client::Writing {
                            op,
                            seq: pack_seq(seq_counter(best_seq) + 1, to),
                            value,
                            acks: BTreeSet::new(),
                        },
                    ),
                    None if WRITE_BACK => self.enter(
                        to,
                        Client::WriteBack {
                            op,
                            rid,
                            seq: best_seq,
                            value: best_value,
                            acks: BTreeSet::new(),
                        },
                    ),
                    // FAULT: respond straight after the query, without writing back.
                    None => self.finish(to, op, Some(best_value)),
                }
            }
        }
    }

    /// Counts `from`'s acknowledgment of `p`'s propagation phase (a write or a
    /// write-back) if it answers the `current` phase; a majority completes the
    /// operation.
    fn on_ack(&mut self, p: ProcessId, from: ProcessId, current: bool) {
        let n = self.n;
        let (op, read_value, acks) = match &mut self.clients[p.0] {
            Client::Writing { op, acks, .. } if current => (*op, None, acks),
            Client::WriteBack {
                op, value, acks, ..
            } if current => (*op, Some(*value), acks),
            _ => return,
        };
        acks.insert(from.0);
        if acks.len() > n / 2 {
            self.finish(p, op, read_value);
        }
    }

    /// Stores `(seq, value)` at replica `p` if it is newer than what `p` holds.
    fn store(&mut self, p: ProcessId, seq: u64, value: i64) {
        if seq > self.replicas[p.0].0 {
            self.replicas[p.0] = (seq, value);
        }
    }

    /// Re-broadcasts the requests of `p`'s current protocol phase to the processes
    /// that have not answered yet, and re-arms the backed-off retry timer. ABD's
    /// handlers are idempotent (sequence numbers and read ids guard every state
    /// change), so retransmissions and the duplicate replies they provoke are
    /// harmless. Retries make lossy runs complete, not correct: the write-back-free
    /// read still has no write-back phase.
    fn retransmit(&mut self, p: ProcessId) {
        if self.is_crashed(p) {
            return;
        }
        let client = &self.clients[p.0];
        let Some(request) = client.request() else {
            return;
        };
        let pending: Vec<ProcessId> = (0..self.n)
            .filter(|&to| !client.answered(to))
            .map(ProcessId)
            .collect();
        if pending.is_empty() {
            return;
        }
        self.net.count_retransmissions(pending.len() as u64);
        for to in pending {
            self.send(p, to, request.clone());
        }
        self.net.rearm_retry(p);
    }

    /// The recorded register-level history.
    #[must_use]
    pub fn history(&self) -> History<i64> {
        History::from_operations(self.ops.clone())
    }

    /// Current `(seq, value)` stored at replica `p` (diagnostics).
    #[must_use]
    pub fn replica_state(&self, p: ProcessId) -> (u64, i64) {
        self.replicas[p.0]
    }
}

impl FaultyAbdCluster {
    /// Builds the classic new/old inversion by adversarial delivery: a write is
    /// propagated to a single replica (and stays pending), a first read queries a
    /// majority *containing* that replica (so it observes the new value), and a second,
    /// later read queries a majority *excluding* it (so it observes the old value).
    /// With the write-back phase the first read would have repaired the gap; without
    /// it, the history is not linearizable. Returns the recorded history.
    ///
    /// (The [`crate::adversary::ReplyWithholdingAdversary`] reaches the same shape
    /// without this hand construction.)
    ///
    /// # Panics
    ///
    /// Panics if `n < 5` (a majority excluding one specific replica needs `n ≥ 5`).
    #[must_use]
    pub fn new_old_inversion(n: usize) -> History<i64> {
        assert!(
            n >= 5,
            "need n >= 5 so two disjoint-enough majorities exist"
        );
        let majority = n / 2 + 1;
        let writer = ProcessId(0);
        let mut c = FaultyAbdCluster::new(n, writer);

        // The write reaches replica 1 only; it never gathers a majority of acks, so it
        // remains pending for the rest of the run.
        c.start_write(7);
        let slot = c
            .inflight()
            .oldest_matching(|e| {
                matches!(e.message, AbdMessage::WriteReq { .. }) && e.to == ProcessId(1)
            })
            .expect("write request to replica 1");
        c.deliver(slot);

        // First read by p1: its queries reach a majority that includes replica 1.
        c.start_read(ProcessId(1));
        let mut answered = 0;
        while answered < majority {
            let slot = c
                .inflight()
                .oldest_matching(|e| {
                    matches!(e.message, AbdMessage::ReadReq { rid } if rid == 1)
                        && e.to.0 < majority
                })
                .expect("read-1 request to a low-indexed replica");
            c.deliver(slot);
            answered += 1;
        }
        while let Some(slot) = c
            .inflight()
            .oldest_matching(|e| matches!(e.message, AbdMessage::ReadReply { rid, .. } if rid == 1))
        {
            c.deliver(slot);
        }

        // Second read by p2 (it starts only after the first read responded): its
        // queries reach a majority that excludes replica 1 — all of them stale.
        c.start_read(ProcessId(2));
        let mut answered = 0;
        while answered < majority {
            let slot = c
                .inflight()
                .oldest_matching(|e| {
                    matches!(e.message, AbdMessage::ReadReq { rid } if rid == 2)
                        && e.to != ProcessId(1)
                })
                .expect("read-2 request to a replica other than replica 1");
            c.deliver(slot);
            answered += 1;
        }
        while let Some(slot) = c
            .inflight()
            .oldest_matching(|e| matches!(e.message, AbdMessage::ReadReply { rid, .. } if rid == 2))
        {
            c.deliver(slot);
        }
        c.history()
    }
}

impl<const WRITE_BACK: bool> MessageCluster for Abd<WRITE_BACK> {
    fn net(&self) -> &SimNet {
        &self.net
    }

    fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    fn deliver_slot(&mut self, slot: usize) {
        self.deliver(slot);
    }

    fn try_start_write(&mut self, value: i64) -> Option<OpId> {
        self.can_invoke(self.writer)
            .then(|| self.start_write(value))
    }

    fn try_start_read(&mut self, p: ProcessId) -> Option<OpId> {
        self.can_invoke(p).then(|| self.start_read(p))
    }

    fn try_start_write_by(&mut self, p: ProcessId, value: i64) -> Option<OpId> {
        ((self.multi_writer || p == self.writer) && self.can_invoke(p))
            .then(|| self.start_write_by(p, value))
    }

    fn on_timer(&mut self, p: ProcessId) {
        self.retransmit(p);
    }

    fn recover_process(&mut self, p: ProcessId) -> bool {
        self.recover(p)
    }

    fn history(&self) -> History<i64> {
        Abd::history(self)
    }

    fn operations(&self) -> &[Operation<i64>] {
        &self.ops
    }

    fn process_count(&self) -> usize {
        self.n
    }

    fn writer(&self) -> ProcessId {
        self.writer
    }

    fn is_idle(&self, p: ProcessId) -> bool {
        matches!(self.clients[p.0], Client::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rlt_spec::Checker;

    /// One checking session shared by every assertion in this module.
    fn is_linearizable(h: &rlt_spec::History<i64>) -> bool {
        static CHECKER: std::sync::OnceLock<Checker<i64>> = std::sync::OnceLock::new();
        CHECKER
            .get_or_init(|| Checker::new(0i64))
            .check(h)
            .is_linearizable()
    }

    use rlt_spec::strategy::check_write_strong_prefix_property;
    use rlt_spec::swmr::canonical_swmr_strategy;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn sequential_write_then_read() {
        let mut c = AbdCluster::new(5, ProcessId(0));
        let mut r = rng(1);
        c.start_write(42);
        c.run_to_quiescence(&mut r, 10_000);
        assert!(c.is_idle(ProcessId(0)));
        c.start_read(ProcessId(3));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        let read = h.reads().next().unwrap();
        assert_eq!(read.read_value(), Some(&42));
        assert!(is_linearizable(&h));
    }

    #[test]
    fn read_before_any_write_returns_initial_value() {
        let mut c = AbdCluster::new(3, ProcessId(0));
        let mut r = rng(2);
        c.start_read(ProcessId(2));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(h.reads().next().unwrap().read_value(), Some(&0));
    }

    #[test]
    fn concurrent_read_may_return_old_or_new_value_but_stays_linearizable() {
        let mut saw_old = false;
        let mut saw_new = false;
        for seed in 0..30 {
            let mut c = AbdCluster::new(5, ProcessId(0));
            let mut r = rng(seed);
            c.start_write(7);
            // Deliver a few messages, then start a concurrent read.
            for _ in 0..3 {
                c.deliver_random(&mut r);
            }
            c.start_read(ProcessId(4));
            c.run_to_quiescence(&mut r, 10_000);
            let h = c.history();
            assert!(is_linearizable(&h), "seed {seed}");
            let read_value = h.reads().next().unwrap().read_value().copied();
            match read_value {
                Some(0) => saw_old = true,
                Some(7) => saw_new = true,
                other => panic!("unexpected read value {other:?}"),
            }
        }
        assert!(
            saw_new,
            "the new value should be observable in some schedule"
        );
        // Depending on delivery luck the old value may or may not appear; do not assert
        // on `saw_old` strictly, but keep the variable to document intent.
        let _ = saw_old;
    }

    #[test]
    fn minority_crashes_do_not_block_operations() {
        let mut c = AbdCluster::new(5, ProcessId(0));
        let mut r = rng(3);
        c.crash(ProcessId(3));
        c.crash(ProcessId(4));
        c.start_write(9);
        c.run_to_quiescence(&mut r, 10_000);
        assert!(
            c.is_idle(ProcessId(0)),
            "write must complete with 3/5 alive"
        );
        c.start_read(ProcessId(1));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(h.reads().next().unwrap().read_value(), Some(&9));
        assert!(is_linearizable(&h));
    }

    #[test]
    fn majority_crashes_block_but_do_not_corrupt() {
        let mut c = AbdCluster::new(5, ProcessId(0));
        let mut r = rng(4);
        c.crash(ProcessId(2));
        c.crash(ProcessId(3));
        c.crash(ProcessId(4));
        c.start_write(9);
        c.run_to_quiescence(&mut r, 10_000);
        // Only 2 of 5 alive: the write can never gather a majority.
        assert!(!c.is_idle(ProcessId(0)));
        let h = c.history();
        assert_eq!(h.pending().count(), 1);
        assert!(is_linearizable(&h));
    }

    #[test]
    fn writer_sequence_numbers_increase() {
        let mut c = AbdCluster::new(3, ProcessId(1));
        let mut r = rng(5);
        for v in 1..=4 {
            c.start_write(v * 10);
            c.run_to_quiescence(&mut r, 10_000);
        }
        assert_eq!(c.replica_state(ProcessId(1)).0, 4);
        assert!(is_linearizable(&c.history()));
    }

    #[test]
    fn random_schedules_are_linearizable_and_write_strongly_linearizable() {
        // Theorem 14 on concrete executions: ABD histories are linearizable, and the
        // canonical SWMR strategy satisfies the write-prefix property on every prefix.
        for seed in 0..20u64 {
            let mut c = AbdCluster::new(5, ProcessId(0));
            let mut r = rng(100 + seed);
            let mut next_value = 1i64;
            for round in 0..6 {
                if c.is_idle(ProcessId(0)) && round % 2 == 0 {
                    c.start_write(next_value);
                    next_value += 1;
                }
                for reader in [1usize, 3] {
                    if c.is_idle(ProcessId(reader)) {
                        c.start_read(ProcessId(reader));
                    }
                }
                for _ in 0..r.gen_range(3..12) {
                    c.deliver_random(&mut r);
                }
            }
            c.run_to_quiescence(&mut r, 100_000);
            let h = c.history();
            assert!(
                is_linearizable(&h),
                "ABD produced a non-linearizable history on seed {seed}"
            );
            let strategy = canonical_swmr_strategy(0i64);
            check_write_strong_prefix_property(&strategy, &h, &0)
                .unwrap_or_else(|v| panic!("Theorem 14 violated on seed {seed}: {v}"));
        }
    }

    #[test]
    fn interleaved_writes_and_reads_with_partial_delivery() {
        let mut c = AbdCluster::new(7, ProcessId(2));
        let mut r = rng(77);
        c.start_write(1);
        for _ in 0..5 {
            c.deliver_random(&mut r);
        }
        c.start_read(ProcessId(0));
        c.start_read(ProcessId(5));
        c.run_to_quiescence(&mut r, 100_000);
        c.start_write(2);
        c.run_to_quiescence(&mut r, 100_000);
        let h = c.history();
        assert_eq!(h.pending().count(), 0);
        assert!(is_linearizable(&h));
    }

    #[test]
    #[should_panic(expected = "already has an operation in progress")]
    fn writer_writes_sequentially() {
        let mut c = AbdCluster::new(3, ProcessId(0));
        c.start_write(1);
        c.start_write(2);
    }

    #[test]
    fn majority_threshold() {
        assert_eq!(AbdCluster::new(3, ProcessId(0)).majority(), 2);
        assert_eq!(AbdCluster::new(5, ProcessId(0)).majority(), 3);
        assert_eq!(AbdCluster::new(6, ProcessId(0)).majority(), 4);
    }

    #[test]
    fn crashed_writer_mid_write_leaves_op_pending_and_drops_its_traffic() {
        let writer = ProcessId(0);
        let mut c = AbdCluster::new(5, writer);
        let mut r = rng(11);
        c.start_write(7);
        // The write reaches replica 1 only, then the writer fail-stops.
        let slot = c
            .inflight()
            .oldest_matching(|e| {
                matches!(e.message, AbdMessage::WriteReq { .. }) && e.to == ProcessId(1)
            })
            .expect("write request to replica 1");
        c.deliver(slot);
        c.crash(writer);
        // All of the crashed writer's stale traffic is gone: no WriteReq keeps
        // circulating, and the ack addressed to it is dropped too.
        assert!(
            c.inflight()
                .iter()
                .all(|(_, e)| e.from != writer && e.to != writer),
            "crash must purge the crashed process's in-flight traffic"
        );
        c.run_to_quiescence(&mut r, 10_000);
        // The write is pending forever — it must never retroactively complete.
        let h = c.history();
        assert_eq!(h.pending().count(), 1);
        assert!(h.writes().next().unwrap().responded_at.is_none());
        // The partially propagated value is still repairable by a read's write-back.
        c.start_read(ProcessId(1));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(
            h.pending().count(),
            1,
            "only the crashed write stays pending"
        );
        // The read's majority may or may not include the one repaired replica; with
        // the write forever pending, both the old and the new value are legal.
        let read_value = h.reads().next().unwrap().read_value().copied();
        assert!(matches!(read_value, Some(0 | 7)), "got {read_value:?}");
        assert!(is_linearizable(&h));
    }

    #[test]
    fn crashed_reader_mid_write_back_leaves_op_pending_and_drops_its_traffic() {
        let reader = ProcessId(1);
        let mut c = AbdCluster::new(5, ProcessId(0));
        let mut r = rng(12);
        c.start_write(7);
        c.run_to_quiescence(&mut r, 10_000);
        c.start_read(reader);
        // Deliver the read's queries and replies until the write-back phase starts.
        while c
            .inflight()
            .iter()
            .all(|(_, e)| !matches!(e.message, AbdMessage::WriteBackReq { .. }))
        {
            let slot = c
                .inflight()
                .oldest_matching(|e| {
                    matches!(
                        e.message,
                        AbdMessage::ReadReq { .. } | AbdMessage::ReadReply { .. }
                    )
                })
                .expect("read query traffic while no write-back is in flight");
            c.deliver(slot);
        }
        // The reader fail-stops mid-write-back: its WriteBackReqs must vanish.
        c.crash(reader);
        assert!(
            c.inflight()
                .iter()
                .all(|(_, e)| e.from != reader && e.to != reader),
            "crash must purge the reader's write-back traffic"
        );
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(h.pending().count(), 1, "the crashed read stays pending");
        assert!(h.reads().next().unwrap().responded_at.is_none());
        assert!(is_linearizable(&h));
        // And the cluster actually quiesced — no garbage circulates forever.
        assert_eq!(c.inflight_count(), 0);
    }

    // --- The write-back-free flavour (negative control) -----------------------

    #[test]
    fn quiescent_sequential_use_still_works() {
        // Without concurrency or adversarial delivery the faulty variant looks fine —
        // which is exactly why a checker is needed.
        let mut c = FaultyAbdCluster::new(3, ProcessId(0));
        let mut r = rng(1);
        c.start_write(5);
        c.run_to_quiescence(&mut r, 10_000);
        c.start_read(ProcessId(1));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(h.reads().next().unwrap().read_value(), Some(&5));
        assert!(is_linearizable(&h));
    }

    #[test]
    fn new_old_inversion_is_rejected_by_the_checker() {
        for n in [5usize, 7, 9] {
            let h = FaultyAbdCluster::new_old_inversion(n);
            let r_values: Vec<i64> = h.reads().filter_map(|r| r.read_value().copied()).collect();
            // First read (by p1) sees the new value; the later read by p2 sees the old
            // one — the classic new/old inversion the write-back phase exists to
            // prevent.
            assert_eq!(r_values, vec![7, 0], "n = {n}");
            assert!(
                !is_linearizable(&h),
                "new/old inversion must be rejected (n = {n})"
            );
        }
    }

    #[test]
    fn random_schedules_eventually_exhibit_non_linearizable_histories() {
        // Under unconstrained random delivery with overlapping reads the missing
        // write-back shows up as a linearizability violation in at least one seed.
        let mut violation_found = false;
        for seed in 0..40u64 {
            let mut c = FaultyAbdCluster::new(5, ProcessId(0));
            let mut r = rng(seed);
            c.start_write(1);
            for _ in 0..4 {
                c.deliver_random(&mut r);
            }
            c.start_read(ProcessId(1));
            c.run_to_quiescence(&mut r, 5);
            c.start_read(ProcessId(2));
            c.run_to_quiescence(&mut r, 100_000);
            if !is_linearizable(&c.history()) {
                violation_found = true;
                break;
            }
        }
        assert!(
            violation_found || {
                // Fall back to the deterministic construction if randomness was unlucky.
                !is_linearizable(&FaultyAbdCluster::new_old_inversion(5))
            }
        );
    }

    // --- Multi-writer clusters -------------------------------------------------

    #[test]
    fn packed_seqs_totally_order_competing_writers() {
        assert!(pack_seq(1, ProcessId(3)) > pack_seq(1, ProcessId(2)));
        assert!(pack_seq(2, ProcessId(0)) > pack_seq(1, ProcessId(63)));
        assert_eq!(seq_counter(pack_seq(9, ProcessId(5))), 9);
    }

    #[test]
    fn sequential_multi_writer_use_is_linearizable() {
        let mut c = AbdCluster::multi_writer(5);
        let mut r = rng(1);
        for (p, v) in [(0usize, 10i64), (3, 20), (1, 30)] {
            c.start_write_by(ProcessId(p), v);
            c.run_to_quiescence(&mut r, 10_000);
        }
        c.start_read(ProcessId(2));
        c.run_to_quiescence(&mut r, 10_000);
        let h = c.history();
        assert_eq!(h.reads().next().unwrap().read_value(), Some(&30));
        assert!(is_linearizable(&h));
    }

    #[test]
    fn concurrent_writers_stay_linearizable_across_seeds() {
        for seed in 0..12u64 {
            let mut c = AbdCluster::multi_writer(5);
            let mut r = rng(seed);
            c.start_write_by(ProcessId(1), 111);
            c.start_write_by(ProcessId(4), 444);
            for _ in 0..6 {
                c.deliver_random(&mut r);
            }
            c.start_read(ProcessId(2));
            c.run_to_quiescence(&mut r, 100_000);
            c.start_read(ProcessId(3));
            c.run_to_quiescence(&mut r, 100_000);
            let h = c.history();
            assert!(is_linearizable(&h), "seed {seed}: {h}");
        }
    }

    #[test]
    fn write_back_free_flavor_admits_inversions() {
        // Mirror of the single-writer negative control, built by hand: the write
        // finishes its query phase, then its propagation reaches replica 1 only;
        // a first read queries a majority containing replica 1 (sees the new
        // value), a later read queries a majority excluding it (sees the old).
        let mut c = FaultyAbdCluster::multi_writer(5);
        let oldest = |c: &FaultyAbdCluster, pred: &dyn Fn(&Envelope) -> bool| {
            c.inflight().oldest_matching(pred)
        };
        c.start_write_by(ProcessId(0), 7);
        // Query phase: all ReadReqs, then a majority of replies.
        while let Some(slot) = oldest(&c, &|e| matches!(e.message, AbdMessage::ReadReq { .. })) {
            c.deliver(slot);
        }
        for _ in 0..3 {
            let slot = oldest(&c, &|e| matches!(e.message, AbdMessage::ReadReply { .. }))
                .expect("query reply");
            c.deliver(slot);
        }
        // Propagation reaches replica 1 only; the write stays pending.
        let slot = oldest(&c, &|e| {
            matches!(e.message, AbdMessage::WriteReq { .. }) && e.to == ProcessId(1)
        })
        .expect("write propagation to replica 1");
        c.deliver(slot);
        // First read by p1 against {1, 2, 3}, rid 2; second read by p2 against
        // {2, 3, 4}, rid 3. Neither writes back, so they respond 7 then 0.
        for (reader, rid, quorum) in [(1usize, 2u64, 1..=3usize), (2, 3, 2..=4)] {
            c.start_read(ProcessId(reader));
            for _ in 0..3 {
                let slot = oldest(&c, &|e| {
                    matches!(e.message, AbdMessage::ReadReq { rid: r } if r == rid)
                        && quorum.contains(&e.to.0)
                })
                .expect("read query");
                c.deliver(slot);
            }
            while let Some(slot) = oldest(
                &c,
                &|e| matches!(e.message, AbdMessage::ReadReply { rid: r, .. } if r == rid),
            ) {
                c.deliver(slot);
            }
        }
        let h = c.history();
        let values: Vec<i64> = h.reads().filter_map(|r| r.read_value().copied()).collect();
        assert_eq!(values, vec![7, 0]);
        assert!(!is_linearizable(&h), "inversion must be rejected: {h}");
    }

    #[test]
    fn recorded_multi_writer_schedules_replay_bit_identically() {
        use crate::adversary::UniformAdversary;
        use crate::delivery::{Schedule, ScheduleRun};
        let mut run = ScheduleRun::new(AbdCluster::multi_writer(5));
        let mut adv = UniformAdversary::new(9);
        run.start_write_by(ProcessId(2), 7);
        run.start_write_by(ProcessId(4), 8);
        for _ in 0..30 {
            if !run.deliver_next(&mut adv) {
                break;
            }
        }
        run.start_read(ProcessId(1));
        for _ in 0..30 {
            if !run.deliver_next(&mut adv) {
                break;
            }
        }
        let history = run.history();
        let schedule = run.into_schedule();
        // Round-trips through text (the `write-by` verb) and replays identically.
        let parsed: Schedule = schedule.to_string().parse().unwrap();
        assert_eq!(parsed, schedule);
        let mut replay = AbdCluster::multi_writer(5);
        parsed.replay_on(&mut replay);
        assert_eq!(replay.history(), history);
    }

    // --- Configuration ---------------------------------------------------------

    #[test]
    fn single_writer_clusters_refuse_foreign_writes() {
        let mut c = AbdCluster::new(5, ProcessId(2));
        assert_eq!(c.try_start_write_by(ProcessId(1), 7), None);
        assert!(c.try_start_write_by(ProcessId(2), 7).is_some());
        assert!(c.history().writes().all(|w| w.process == ProcessId(2)));
    }

    #[test]
    fn derived_models_match_the_named_models() {
        let w = ProcessId(0);
        let named = |name| ClusterModel::named(name).unwrap();
        assert_eq!(AbdCluster::new(5, w).model(), named("abd"));
        assert_eq!(FaultyAbdCluster::new(5, w).model(), named("faulty-abd"));
        assert_eq!(AbdCluster::multi_writer(5).model(), named("mw-abd"));
        assert_eq!(
            FaultyAbdCluster::multi_writer(5).model(),
            named("faulty-mw-abd")
        );
        // The pairing the benchmark harness spells out by hand.
        assert_eq!(
            FaultyAbdCluster::new(5, w).model(),
            ClusterModel::single_writer(5, w).without_write_backs()
        );
        assert_eq!(
            AbdCluster::new(5, w)
                .with_retries(RetryPolicy::default())
                .model(),
            named("abd").with_retries()
        );
    }
}

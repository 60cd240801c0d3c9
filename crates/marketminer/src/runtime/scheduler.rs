//! The scheduler: which node may take its next turn.
//!
//! Pure bookkeeping behind one mutex — per-node mailboxes, EOF counts,
//! statuses and the shared run queue — over a fixed edge list. It runs no
//! user code and knows nothing about what a node *is*: a node is an index
//! whose turn is taken by whoever asks [`Scheduler::next_runnable`], or an
//! externally *fed* index (a graph source) that pushes with
//! [`Scheduler::feed`] and is never queued. The tests below drive it with
//! bare messages and no graph.
//!
//! # Backpressure without deadlock
//!
//! Inboxes are soft-bounded: a producer is only *scheduled* while every
//! consumer inbox is below `capacity`, and it re-checks that gate before
//! each message of a batch, but the emissions of one event are never
//! split — so an inbox can transiently overshoot by at most one event's
//! emissions. Every inbox pop that crosses back below capacity
//! re-evaluates the producers, and sinks are always runnable when they
//! have input, so by induction over the (acyclic, validated) graph the
//! pool always has runnable work until the run drains. Backpressure is
//! park-as-data: a node over a full edge is simply not re-queued, so no
//! pool thread ever blocks holding the lock; only a feeder waits.
//!
//! # Shutdown: per-edge EOF counting
//!
//! A finishing node records one EOF per outgoing edge; a node's end-of-
//! stream flush becomes runnable once its EOF count equals its in-degree
//! and its inbox is empty. EOFs are scheduler-internal: never queued,
//! never delivered, never counted in stats, and never held back by a full
//! inbox — shutdown cannot be backpressured.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::messages::Message;

/// Scheduling status of a node. Exactly one worker runs a node at a time
/// (`Running`); `Done` nodes are never rescheduled and pushes to them are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Idle,
    Queued,
    Running,
    Done,
}

struct SchedState {
    inbox: Vec<VecDeque<Message>>,
    eofs_seen: Vec<usize>,
    status: Vec<Status>,
    run_queue: VecDeque<usize>,
    /// Nodes not yet `Done`; 0 means the run has drained.
    live: usize,
    shutdown: bool,
}

/// What a running node does next (see [`Scheduler::next_event`]).
pub(super) enum Next {
    /// A message, and the inbox depth it was popped from (itself
    /// included).
    Msg(Message, usize),
    /// Every upstream finished and the inbox is empty: flush and finish.
    End,
    /// Nothing deliverable now (empty inbox, or a full edge downstream).
    Wait,
}

pub(super) struct Scheduler {
    state: Mutex<SchedState>,
    /// Workers wait here for the run queue.
    work_cv: Condvar,
    /// [`Scheduler::wait_drained`] waits here for `shutdown`.
    done_cv: Condvar,
    /// Feeders wait here for downstream inbox capacity.
    cap_cv: Condvar,
    /// Bound on every inbox.
    capacity: usize,
    /// `succs[u]` = targets of every edge `(u, v)`, in edge order.
    pub(super) succs: Vec<Vec<usize>>,
    /// `preds[v]` = origins of every edge `(u, v)`.
    preds: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
    /// False for fed nodes (they are never pool-scheduled).
    schedulable: Vec<bool>,
    /// `parks[u][k]`: scheduling attempts of `u` denied because the inbox
    /// of `succs[u][k]` was full — the backpressure ledger. A producer
    /// that stays parked is re-counted on every attempt, so the number
    /// measures pressure, not unique parks. `None` when nobody reads it.
    pub(super) parks: Option<Vec<Vec<AtomicU64>>>,
}

impl Scheduler {
    /// A scheduler over nodes `0..n` joined by `edges`; `capacity`
    /// bounds every inbox and the nodes in `fed` push from outside the
    /// pool.
    pub(super) fn new(
        edges: &[(usize, usize)],
        n: usize,
        capacity: usize,
        fed: &[usize],
        count_parks: bool,
    ) -> Scheduler {
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in edges {
            succs[from].push(to);
            preds[to].push(from);
        }
        let parks = count_parks.then(|| {
            (succs.iter())
                .map(|s| s.iter().map(|_| AtomicU64::new(0)).collect())
                .collect()
        });
        Scheduler {
            state: Mutex::new(SchedState {
                inbox: (0..n).map(|_| VecDeque::new()).collect(),
                eofs_seen: vec![0; n],
                status: vec![Status::Idle; n],
                run_queue: VecDeque::new(),
                live: n,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cap_cv: Condvar::new(),
            capacity,
            in_degree: preds.iter().map(Vec::len).collect(),
            succs,
            preds,
            schedulable: (0..n).map(|idx| !fed.contains(&idx)).collect(),
            parks,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().expect("scheduler state")
    }

    /// Every downstream inbox below capacity (or its node done)?
    fn outputs_clear(&self, st: &SchedState, idx: usize) -> bool {
        self.succs[idx]
            .iter()
            .all(|&t| st.status[t] == Status::Done || st.inbox[t].len() < self.capacity)
    }

    /// Inbox non-empty, or all upstreams finished (end-flush pending)?
    fn has_input(&self, st: &SchedState, idx: usize) -> bool {
        !st.inbox[idx].is_empty() || st.eofs_seen[idx] >= self.in_degree[idx]
    }

    /// Queue the node if it is idle and runnable. Every state change that
    /// could make a node runnable funnels through here, under the state
    /// lock, so there are no lost wakeups.
    fn try_schedule(&self, st: &mut SchedState, idx: usize) {
        if self.schedulable[idx] && st.status[idx] == Status::Idle && self.has_input(st, idx) {
            if self.outputs_clear(st, idx) {
                st.status[idx] = Status::Queued;
                st.run_queue.push_back(idx);
                self.work_cv.notify_one();
            } else {
                self.note_parks(st, idx);
            }
        }
    }

    /// The node had input but a full downstream inbox denied the
    /// schedule — bump the park counter of every full edge.
    fn note_parks(&self, st: &SchedState, idx: usize) {
        if let Some(parks) = &self.parks {
            for (k, &t) in self.succs[idx].iter().enumerate() {
                if st.status[t] != Status::Done && st.inbox[t].len() >= self.capacity {
                    parks[idx][k].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Fan one message out to every consumer of `from`. A running node
    /// emits without waiting (it was gated on `outputs_clear`; transient
    /// overshoot within one event is allowed); a fed node asks to `wait`
    /// while a live consumer's inbox is at capacity.
    fn send(&self, from: usize, msg: Message, wait: bool) {
        let mut st = self.lock();
        let mut msg = Some(msg);
        let succs = &self.succs[from];
        for (k, &to) in succs.iter().enumerate() {
            while wait && st.status[to] != Status::Done && st.inbox[to].len() >= self.capacity {
                st = self.cap_cv.wait(st).expect("capacity condvar");
            }
            if st.status[to] == Status::Done {
                continue; // the consumer is gone; dropping is the stream semantics
            }
            let msg = if k + 1 == succs.len() {
                msg.take()
            } else {
                msg.clone()
            };
            st.inbox[to].push_back(msg.expect("moved into the last edge only"));
            self.try_schedule(&mut st, to);
        }
    }

    /// Non-blocking fan-out of running node `from`'s emission.
    pub(super) fn emit(&self, from: usize, msg: Message) {
        self.send(from, msg, false);
    }

    /// Blocking, capacity-aware fan-out for fed node `from`.
    pub(super) fn feed(&self, from: usize, msg: Message) {
        self.send(from, msg, true);
    }

    /// An inbox pop just crossed back below capacity, or the node
    /// retired: producers held back by this node may be runnable again.
    fn wake_producers(&self, st: &mut SchedState, of: usize) {
        for &p in &self.preds[of] {
            self.try_schedule(st, p);
        }
        self.cap_cv.notify_all();
    }

    /// Retire a node: clear its inbox, unblock its producers, and if it
    /// was the last live node, begin shutdown.
    fn mark_done(&self, st: &mut SchedState, idx: usize) {
        if st.status[idx] == Status::Done {
            return;
        }
        st.status[idx] = Status::Done;
        st.inbox[idx].clear();
        st.live -= 1;
        self.wake_producers(st, idx);
        if st.live == 0 {
            st.shutdown = true;
            self.work_cv.notify_all();
            self.done_cv.notify_all();
        }
    }

    /// End node `idx`'s stream, whoever ends it (its own epilogue, a
    /// panic, a closing source): one EOF down every outgoing edge —
    /// a counter, not a queued message, so a full inbox cannot hold it
    /// back — then retire the node.
    pub(super) fn finish_node(&self, idx: usize) {
        let st = &mut *self.lock();
        for &t in &self.succs[idx] {
            if st.status[t] != Status::Done {
                st.eofs_seen[t] += 1;
                self.try_schedule(st, t);
            }
        }
        self.mark_done(st, idx);
    }

    /// Block until a node is runnable and claim its turn: the node, and
    /// the run-queue depth left behind. `None` once the run shuts down.
    pub(super) fn next_runnable(&self) -> Option<(usize, usize)> {
        let mut st = self.lock();
        loop {
            if let Some(idx) = st.run_queue.pop_front() {
                st.status[idx] = Status::Running;
                return Some((idx, st.run_queue.len()));
            }
            if st.shutdown {
                return None;
            }
            st = self.work_cv.wait(st).expect("work condvar");
        }
    }

    /// The next event of running node `idx`, gated on downstream
    /// capacity.
    pub(super) fn next_event(&self, idx: usize) -> Next {
        let st = &mut *self.lock();
        if !self.outputs_clear(st, idx) {
            return Next::Wait;
        }
        if let Some(msg) = st.inbox[idx].pop_front() {
            let depth = st.inbox[idx].len() + 1;
            if depth == self.capacity {
                self.wake_producers(st, idx);
            }
            return Next::Msg(msg, depth);
        }
        if st.eofs_seen[idx] >= self.in_degree[idx] {
            Next::End
        } else {
            Next::Wait
        }
    }

    /// End running node `idx`'s turn: straight back to the queue if it is
    /// still runnable (true), idle otherwise. Decided under the state
    /// lock, so a concurrent push cannot slip between "inbox empty" and
    /// "status = Idle".
    pub(super) fn end_turn(&self, idx: usize) -> bool {
        let st = &mut *self.lock();
        let has_input = self.has_input(st, idx);
        if has_input && self.outputs_clear(st, idx) {
            st.status[idx] = Status::Queued;
            st.run_queue.push_back(idx);
            self.work_cv.notify_one();
            return true;
        }
        if has_input {
            self.note_parks(st, idx);
        }
        st.status[idx] = Status::Idle;
        false
    }

    /// Everything pushed so far fully absorbed: run queue empty, every
    /// inbox empty, every node `Idle` or `Done`.
    pub(super) fn is_quiescent(&self) -> bool {
        let st = self.lock();
        st.run_queue.is_empty()
            && st.inbox.iter().all(VecDeque::is_empty)
            && (st.status.iter()).all(|&s| s == Status::Idle || s == Status::Done)
    }

    /// Block until every node is done.
    pub(super) fn wait_drained(&self) {
        let mut st = self.lock();
        while !st.shutdown {
            st = self.done_cv.wait(st).expect("done condvar");
        }
    }

    /// Release every waiter — after the drain, or to abandon a run whose
    /// nodes are still live.
    pub(super) fn shut_down(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
        self.cap_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `0` (fed) → `1` → `2`, every inbox bounded at two.
    fn chain() -> Scheduler {
        Scheduler::new(&[(0, 1), (1, 2)], 3, 2, &[0], false)
    }

    fn queue(s: &Scheduler) -> Vec<usize> {
        s.lock().run_queue.iter().copied().collect()
    }

    fn take_msg(s: &Scheduler, idx: usize) {
        assert!(matches!(s.next_event(idx), Next::Msg(..)));
    }

    #[test]
    fn a_full_consumer_parks_its_producer_until_a_pop_crosses_back_below_capacity() {
        let s = chain();
        s.feed(0, Message::Eof);
        s.feed(0, Message::Eof);
        assert_eq!(s.next_runnable(), Some((1, 0)));
        // Node 1 fills node 2's inbox with its first event's emissions
        // and still holds a message of its own.
        take_msg(&s, 1);
        s.emit(1, Message::Eof);
        s.emit(1, Message::Eof);
        assert!(matches!(s.next_event(1), Next::Wait), "gated per message");
        assert!(!s.end_turn(1), "has input, but the edge is full");
        assert_eq!(queue(&s), [2], "the producer is parked, not queued");
        assert!(!s.is_quiescent());

        assert_eq!(s.next_runnable(), Some((2, 0)));
        take_msg(&s, 2);
        assert_eq!(queue(&s), [1], "the pop from 2 -> 1 messages re-queued it");
        take_msg(&s, 2);
        assert_eq!(queue(&s), [1], "and only that pop");
    }

    #[test]
    fn an_eof_is_counted_past_a_full_inbox_and_the_last_retirement_shuts_down() {
        let s = chain();
        s.feed(0, Message::Eof);
        s.feed(0, Message::Eof);
        assert_eq!(s.lock().inbox[1].len(), 2, "at capacity");
        s.finish_node(0);
        assert_eq!(s.lock().eofs_seen[1], 1);
        assert_eq!(s.next_runnable(), Some((1, 0)));
        take_msg(&s, 1);
        take_msg(&s, 1);
        for idx in [1, 2] {
            assert!(
                matches!(s.next_event(idx), Next::End),
                "its end flush is due"
            );
            assert!(!s.lock().shutdown);
            s.finish_node(idx);
            assert_eq!(s.next_runnable(), (idx == 1).then_some((2, 0)));
        }
        assert!(s.lock().shutdown);
        s.wait_drained();
    }

    #[test]
    fn a_queued_node_is_not_quiescence() {
        let s = chain();
        assert!(s.is_quiescent());
        s.feed(0, Message::Eof);
        assert_eq!(queue(&s), [1]);
        assert!(!s.is_quiescent(), "queued");
        assert_eq!(s.next_runnable(), Some((1, 0)));
        take_msg(&s, 1);
        assert!(!s.is_quiescent(), "running, inboxes empty");
        assert!(!s.end_turn(1));
        assert!(s.is_quiescent());
    }
}

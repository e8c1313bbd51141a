//! A pSOS⁺ᵐ-shaped multitasking executive.
//!
//! Section 4 embeds the NTI software into "the state-of-the-art industrial
//! multiprocessing/multitasking real-time kernel pSOS⁺ᵐ". This module
//! models that executive's *semantics* — priority-preemptive scheduling,
//! message queues with blocking receive, counting semaphores, delays —
//! with simulated execution time, so the software structure of Figure 9
//! (application tasks + the clock-synchronization task, all over one
//! driver) can be expressed and verified as actual tasks.
//!
//! Task bodies are state machines: each [`TaskBody::step`] returns what
//! the task does next ([`Step::Compute`], [`Step::Send`], [`Step::Receive`],
//! …), and the executive charges virtual time and schedules accordingly.
//! Preemption happens whenever a scheduling event (message arrival,
//! semaphore release, delay expiry, task start) readies a higher-priority
//! task: the running task's remaining compute time is preserved and it is
//! returned to the ready queue — priority-preemptive with FIFO within a
//! priority, like pSOS.
//!
//! The cluster simulation in `nti-core` deliberately uses the *condensed*
//! latency distributions from [`crate::KernelConfig`] instead of running
//! task bodies per CSP (orders of magnitude cheaper); the executive here
//! is the reference model those distributions summarize, and is exercised
//! by its own tests plus the KI/NI/CI structure test.

use nti_simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Task identifier.
pub type TaskId = usize;
/// Message queue identifier.
pub type QueueId = usize;
/// Semaphore identifier.
pub type SemId = usize;

/// A message (opaque payload plus sender).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sending task.
    pub from: TaskId,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// What a task does next.
#[derive(Debug)]
pub enum Step {
    /// Execute for the given CPU time, then step again.
    Compute(SimDuration),
    /// Send a message to a queue (non-blocking), then step again.
    Send(QueueId, Vec<u8>),
    /// Block until a message arrives on the queue (FIFO wakeup); the
    /// message is delivered via [`TaskBody::deliver`] before the next step.
    Receive(QueueId),
    /// Acquire the semaphore (block while its count is zero).
    SemP(SemId),
    /// Release the semaphore (readies the longest-waiting task).
    SemV(SemId),
    /// Sleep for the given duration.
    Delay(SimDuration),
    /// Signal event flags to another task (pSOS `ev_send`): OR-ed into the
    /// target's pending set; wakes it if its wait condition is satisfied.
    EvSend(TaskId, u32),
    /// Block until all bits in the mask are pending (pSOS `ev_receive`
    /// with EV_ALL); the matched bits are consumed and delivered via
    /// [`TaskBody::events`].
    EvReceive(u32),
    /// Terminate the task.
    Exit,
}

/// A task's behaviour.
pub trait TaskBody {
    /// Decide the next action. Called whenever the task gets the CPU and
    /// has no outstanding action.
    fn step(&mut self, now: SimTime) -> Step;
    /// Deliver the message that satisfied a [`Step::Receive`].
    fn deliver(&mut self, _msg: Msg) {}
    /// Deliver the flags that satisfied a [`Step::EvReceive`].
    fn events(&mut self, _flags: u32) {}
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum State {
    Ready,
    Computing,
    BlockedRecv(QueueId),
    BlockedSem(SemId),
    BlockedEv(u32),
    Sleeping,
    Done,
}

struct Tcb {
    prio: u8,
    state: State,
    /// Remaining compute time when preempted.
    remaining: SimDuration,
    body: Box<dyn TaskBody>,
    /// CPU time consumed (accounting).
    cpu_used: SimDuration,
    /// Pending event flags (pSOS events).
    pending_events: u32,
    /// FIFO tiebreaker within a priority.
    enqueued_seq: u64,
}

#[derive(Default)]
struct MsgQueue {
    messages: VecDeque<Msg>,
    waiters: VecDeque<TaskId>,
}

struct Sem {
    count: u32,
    waiters: VecDeque<TaskId>,
}

/// One entry in the executive's trace (for assertions and debugging).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Task got the CPU.
    Dispatched(TaskId),
    /// Task was preempted by a higher-priority task.
    Preempted(TaskId, TaskId),
    /// Task exited.
    Exited(TaskId),
}

/// The executive.
pub struct Executive {
    now: SimTime,
    tasks: Vec<Tcb>,
    queues: Vec<MsgQueue>,
    sems: Vec<Sem>,
    /// Pending timed wakeups: (time, task).
    timers: Vec<(SimTime, TaskId)>,
    /// Cost charged for each context switch.
    pub context_switch: SimDuration,
    trace: Vec<(SimTime, TraceEvent)>,
    seq: u64,
    running: Option<TaskId>,
}

impl Executive {
    /// An empty executive at t = 0.
    pub fn new() -> Self {
        Executive {
            now: SimTime::ZERO,
            tasks: Vec::new(),
            queues: Vec::new(),
            sems: Vec::new(),
            timers: Vec::new(),
            context_switch: SimDuration::from_micros(15),
            trace: Vec::new(),
            seq: 0,
            running: None,
        }
    }

    /// Create a task with the given priority (higher number = higher
    /// priority, pSOS convention) in the Ready state.
    pub fn spawn(&mut self, prio: u8, body: Box<dyn TaskBody>) -> TaskId {
        let id = self.tasks.len();
        self.seq += 1;
        self.tasks.push(Tcb {
            prio,
            state: State::Ready,
            remaining: SimDuration::ZERO,
            body,
            cpu_used: SimDuration::ZERO,
            pending_events: 0,
            enqueued_seq: self.seq,
        });
        id
    }

    /// Create a message queue.
    pub fn q_create(&mut self) -> QueueId {
        self.queues.push(MsgQueue::default());
        self.queues.len() - 1
    }

    /// Create a counting semaphore with an initial count.
    pub fn sm_create(&mut self, count: u32) -> SemId {
        self.sems.push(Sem {
            count,
            waiters: VecDeque::new(),
        });
        self.sems.len() - 1
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The trace so far.
    pub fn trace(&self) -> &[(SimTime, TraceEvent)] {
        &self.trace
    }

    /// CPU time consumed by a task.
    pub fn cpu_used(&self, t: TaskId) -> SimDuration {
        self.tasks[t].cpu_used
    }

    /// Whether a task has exited.
    pub fn is_done(&self, t: TaskId) -> bool {
        self.tasks[t].state == State::Done
    }

    /// Inject a message from "outside" (an ISR) into a queue, waking a
    /// waiter — how the COMCO driver posts into the CI queue.
    pub fn isr_send(&mut self, q: QueueId, data: Vec<u8>) {
        self.post(
            q,
            Msg {
                from: usize::MAX,
                data,
            },
        );
    }

    /// Signal event flags from "outside" (an ISR) to a task.
    pub fn isr_ev_send(&mut self, t: TaskId, flags: u32) {
        self.ev_send(t, flags);
    }

    fn ev_send(&mut self, t: TaskId, flags: u32) {
        self.tasks[t].pending_events |= flags;
        if let State::BlockedEv(mask) = self.tasks[t].state {
            if self.tasks[t].pending_events & mask == mask {
                self.tasks[t].pending_events &= !mask;
                self.tasks[t].body.events(mask);
                self.ready(t);
            }
        }
    }

    fn post(&mut self, q: QueueId, msg: Msg) {
        if let Some(w) = self.queues[q].waiters.pop_front() {
            self.tasks[w].body.deliver(msg);
            self.ready(w);
        } else {
            self.queues[q].messages.push_back(msg);
        }
    }

    fn ready(&mut self, t: TaskId) {
        self.seq += 1;
        self.tasks[t].state = State::Ready;
        self.tasks[t].enqueued_seq = self.seq;
    }

    /// The highest-priority ready task (FIFO within a priority).
    fn pick(&self) -> Option<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == State::Ready || t.state == State::Computing)
            .max_by(|(_, a), (_, b)| {
                a.prio
                    .cmp(&b.prio)
                    .then(b.enqueued_seq.cmp(&a.enqueued_seq))
            })
            .map(|(i, _)| i)
    }

    /// The next timer expiry, if any.
    fn next_timer(&self) -> Option<(SimTime, usize)> {
        self.timers
            .iter()
            .enumerate()
            .min_by_key(|(_, (at, _))| *at)
            .map(|(i, (at, _))| (*at, i))
    }

    fn fire_timer(&mut self, idx: usize) {
        let (at, task) = self.timers.swap_remove(idx);
        debug_assert!(at >= self.now);
        self.now = self.now.max(at);
        self.ready(task);
    }

    /// Run until `until` (or until everything is idle and no timer is
    /// pending).
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            // Fire any due timers first.
            while let Some((at, idx)) = self.next_timer() {
                if at <= self.now {
                    self.fire_timer(idx);
                } else {
                    break;
                }
            }
            let Some(t) = self.pick() else {
                // Idle: jump to the next timer or stop.
                match self.next_timer() {
                    Some((at, idx)) if at <= until => {
                        self.now = at;
                        self.fire_timer(idx);
                        continue;
                    }
                    _ => {
                        self.now = until;
                        return;
                    }
                }
            };
            if self.now >= until {
                return;
            }
            if self.running != Some(t) {
                if let Some(prev) = self.running {
                    if !matches!(self.tasks[prev].state, State::Done)
                        && self.tasks[prev].state == State::Computing
                    {
                        self.trace.push((self.now, TraceEvent::Preempted(prev, t)));
                    }
                }
                self.trace.push((self.now, TraceEvent::Dispatched(t)));
                self.now += self.context_switch;
                self.running = Some(t);
            }
            // If mid-compute, run up to the next scheduling horizon.
            if self.tasks[t].state == State::Computing {
                let horizon = self
                    .next_timer()
                    .map(|(at, _)| at)
                    .unwrap_or(SimTime::MAX)
                    .min(until);
                let slice = self.tasks[t].remaining;
                let end = self.now + slice;
                if end <= horizon {
                    self.now = end;
                    self.tasks[t].cpu_used += slice;
                    self.tasks[t].remaining = SimDuration::ZERO;
                    self.tasks[t].state = State::Ready;
                } else {
                    // A timer fires mid-slice: consume up to it, then let
                    // the wakeup (possibly higher priority) compete.
                    let used = horizon.saturating_since(self.now);
                    self.now = horizon;
                    self.tasks[t].cpu_used += used;
                    self.tasks[t].remaining -= used;
                }
                continue;
            }
            // Ask the body for its next action.
            let step = self.tasks[t].body.step(self.now);
            match step {
                Step::Compute(d) => {
                    self.tasks[t].state = State::Computing;
                    self.tasks[t].remaining = d;
                }
                Step::Send(q, data) => {
                    self.post(q, Msg { from: t, data });
                }
                Step::Receive(q) => {
                    if let Some(msg) = self.queues[q].messages.pop_front() {
                        self.tasks[t].body.deliver(msg);
                    } else {
                        self.tasks[t].state = State::BlockedRecv(q);
                        self.queues[q].waiters.push_back(t);
                        self.running = None;
                    }
                }
                Step::SemP(s) => {
                    if self.sems[s].count > 0 {
                        self.sems[s].count -= 1;
                    } else {
                        self.tasks[t].state = State::BlockedSem(s);
                        self.sems[s].waiters.push_back(t);
                        self.running = None;
                    }
                }
                Step::SemV(s) => {
                    if let Some(w) = self.sems[s].waiters.pop_front() {
                        self.ready(w);
                    } else {
                        self.sems[s].count += 1;
                    }
                }
                Step::EvSend(to, flags) => {
                    self.ev_send(to, flags);
                }
                Step::EvReceive(mask) => {
                    if self.tasks[t].pending_events & mask == mask {
                        self.tasks[t].pending_events &= !mask;
                        self.tasks[t].body.events(mask);
                    } else {
                        self.tasks[t].state = State::BlockedEv(mask);
                        self.running = None;
                    }
                }
                Step::Delay(d) => {
                    self.tasks[t].state = State::Sleeping;
                    self.timers.push((self.now + d, t));
                    self.running = None;
                }
                Step::Exit => {
                    self.tasks[t].state = State::Done;
                    self.trace.push((self.now, TraceEvent::Exited(t)));
                    self.running = None;
                }
            }
        }
    }
}

impl Default for Executive {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A scripted task body: plays back a list of steps; records delivered
    /// messages and step times into a shared log.
    struct Script {
        steps: Vec<Step>,
        idx: usize,
        log: Rc<RefCell<Vec<(SimTime, usize)>>>,
        me: usize,
        delivered: Rc<RefCell<Vec<Msg>>>,
    }

    impl Script {
        #[allow(clippy::new_ret_no_self)]
        fn new(
            me: usize,
            steps: Vec<Step>,
            log: Rc<RefCell<Vec<(SimTime, usize)>>>,
        ) -> (Box<dyn TaskBody>, Rc<RefCell<Vec<Msg>>>) {
            let delivered = Rc::new(RefCell::new(Vec::new()));
            (
                Box::new(Script {
                    steps,
                    idx: 0,
                    log,
                    me,
                    delivered: delivered.clone(),
                }),
                delivered,
            )
        }
    }

    impl TaskBody for Script {
        fn step(&mut self, now: SimTime) -> Step {
            self.log.borrow_mut().push((now, self.me));
            if self.idx >= self.steps.len() {
                return Step::Exit;
            }
            let s = std::mem::replace(&mut self.steps[self.idx], Step::Exit);
            self.idx += 1;
            s
        }
        fn deliver(&mut self, msg: Msg) {
            self.delivered.borrow_mut().push(msg);
        }
    }

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn higher_priority_runs_first() {
        let mut ex = Executive::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (lo, _) = Script::new(0, vec![Step::Compute(us(100))], log.clone());
        let (hi, _) = Script::new(1, vec![Step::Compute(us(100))], log.clone());
        ex.spawn(10, lo);
        ex.spawn(200, hi);
        ex.run_until(SimTime::from_millis(10));
        let order: Vec<usize> = log.borrow().iter().map(|&(_, who)| who).collect();
        assert_eq!(order[0], 1, "high priority first: {order:?}");
        assert!(ex.is_done(0) && ex.is_done(1));
    }

    #[test]
    fn blocking_receive_wakes_on_send() {
        let mut ex = Executive::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let q = 0;
        let (rx, delivered) = Script::new(
            0,
            vec![Step::Receive(q), Step::Compute(us(10))],
            log.clone(),
        );
        let (tx, _) = Script::new(
            1,
            vec![Step::Compute(us(500)), Step::Send(q, vec![42])],
            log.clone(),
        );
        ex.q_create();
        // Receiver has HIGHER priority: it must still block and let the
        // sender run, then preempt-style resume on delivery.
        ex.spawn(100, rx);
        ex.spawn(10, tx);
        ex.run_until(SimTime::from_millis(10));
        assert_eq!(delivered.borrow().len(), 1);
        assert_eq!(delivered.borrow()[0].data, vec![42]);
        assert_eq!(delivered.borrow()[0].from, 1);
        assert!(ex.is_done(0));
    }

    #[test]
    fn message_waits_when_no_receiver_yet() {
        let mut ex = Executive::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let q = 0;
        let (tx, _) = Script::new(0, vec![Step::Send(q, vec![7])], log.clone());
        let (rx, delivered) = Script::new(
            1,
            vec![Step::Compute(us(300)), Step::Receive(q)],
            log.clone(),
        );
        ex.q_create();
        ex.spawn(50, tx);
        ex.spawn(60, rx);
        ex.run_until(SimTime::from_millis(5));
        assert_eq!(
            delivered.borrow().len(),
            1,
            "queued message consumed without blocking"
        );
    }

    #[test]
    fn semaphore_mutual_exclusion_fifo() {
        let mut ex = Executive::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let s = 0;
        // Three tasks of equal priority each take the sem, compute, release.
        for i in 0..3usize {
            let (body, _) = Script::new(
                i,
                vec![Step::SemP(s), Step::Compute(us(100)), Step::SemV(s)],
                log.clone(),
            );
            ex.spawn(50, body);
        }
        ex.sm_create(1);
        ex.run_until(SimTime::from_millis(10));
        assert!((0..3).all(|t| ex.is_done(t)));
        // Everyone got ~100 us of CPU.
        for t in 0..3 {
            assert_eq!(ex.cpu_used(t), us(100));
        }
    }

    #[test]
    fn delay_expiry_preempts_lower_priority() {
        let mut ex = Executive::new();
        ex.context_switch = SimDuration::ZERO;
        let log = Rc::new(RefCell::new(Vec::new()));
        // High-priority task sleeps 1 ms then computes; low-priority task
        // computes 10 ms. The wakeup must preempt mid-compute.
        let (hi, _) = Script::new(
            0,
            vec![
                Step::Delay(SimDuration::from_millis(1)),
                Step::Compute(us(50)),
            ],
            log.clone(),
        );
        let (lo, _) = Script::new(
            1,
            vec![Step::Compute(SimDuration::from_millis(10))],
            log.clone(),
        );
        let hi_id = ex.spawn(200, hi);
        let lo_id = ex.spawn(10, lo);
        ex.run_until(SimTime::from_millis(20));
        assert!(ex.is_done(hi_id) && ex.is_done(lo_id));
        // The preemption must appear in the trace.
        assert!(
            ex.trace().iter().any(
                |(_, e)| matches!(e, TraceEvent::Preempted(l, h) if *l == lo_id && *h == hi_id)
            ),
            "trace: {:?}",
            ex.trace()
        );
        // Low task's total CPU must still be the full 10 ms.
        assert_eq!(ex.cpu_used(lo_id), SimDuration::from_millis(10));
    }

    #[test]
    fn isr_send_wakes_protocol_task() {
        // The Figure 9 shape: a protocol task blocks on the CI queue; an
        // "ISR" posts a CSP into it from outside the executive.
        let mut ex = Executive::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let q = 0;
        let (proto, delivered) = Script::new(
            0,
            vec![Step::Receive(q), Step::Compute(us(30))],
            log.clone(),
        );
        ex.q_create();
        let id = ex.spawn(150, proto);
        ex.run_until(SimTime::from_millis(1)); // blocks
        assert!(!ex.is_done(id));
        ex.isr_send(q, vec![1, 2, 3]);
        ex.run_until(SimTime::from_millis(2));
        assert!(ex.is_done(id));
        assert_eq!(delivered.borrow()[0].data, vec![1, 2, 3]);
        assert_eq!(delivered.borrow()[0].from, usize::MAX, "ISR origin");
    }

    #[test]
    fn equal_priority_runs_to_completion_in_fifo_order() {
        // pSOS semantics: strict priority, FIFO within a priority, no
        // automatic round-robin — each task runs to completion before the
        // next equal-priority task is dispatched.
        let mut ex = Executive::new();
        ex.context_switch = SimDuration::ZERO;
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3usize {
            let (b, _) = Script::new(i, vec![Step::Compute(us(10))], log.clone());
            ex.spawn(50, b);
        }
        ex.run_until(SimTime::from_millis(1));
        let order: Vec<usize> = log.borrow().iter().map(|&(_, w)| w).collect::<Vec<_>>();
        assert_eq!(order, vec![0, 0, 1, 1, 2, 2], "{order:?}");
    }

    #[test]
    fn cpu_accounting_and_virtual_time() {
        let mut ex = Executive::new();
        ex.context_switch = us(5);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (a, _) = Script::new(
            0,
            vec![Step::Compute(us(100)), Step::Compute(us(50))],
            log.clone(),
        );
        let id = ex.spawn(10, a);
        ex.run_until(SimTime::from_secs(1));
        assert_eq!(ex.cpu_used(id), us(150));
        assert!(ex.is_done(id));
    }

    /// Scripted body that also records delivered event flags.
    struct EvScript {
        steps: Vec<Step>,
        idx: usize,
        got: Rc<RefCell<Vec<u32>>>,
    }
    impl TaskBody for EvScript {
        fn step(&mut self, _now: SimTime) -> Step {
            if self.idx >= self.steps.len() {
                return Step::Exit;
            }
            let s = std::mem::replace(&mut self.steps[self.idx], Step::Exit);
            self.idx += 1;
            s
        }
        fn events(&mut self, flags: u32) {
            self.got.borrow_mut().push(flags);
        }
    }

    #[test]
    fn event_flags_block_until_all_set() {
        let mut ex = Executive::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let waiter = ex.spawn(
            100,
            Box::new(EvScript {
                steps: vec![Step::EvReceive(0b11), Step::Compute(us(5))],
                idx: 0,
                got: got.clone(),
            }),
        );
        ex.run_until(SimTime::from_millis(1));
        assert!(!ex.is_done(waiter), "blocked on both flags");
        ex.isr_ev_send(waiter, 0b01);
        ex.run_until(SimTime::from_millis(2));
        assert!(!ex.is_done(waiter), "only one flag set");
        ex.isr_ev_send(waiter, 0b10);
        ex.run_until(SimTime::from_millis(3));
        assert!(ex.is_done(waiter));
        assert_eq!(*got.borrow(), vec![0b11]);
    }

    #[test]
    fn event_flags_already_pending_do_not_block() {
        let mut ex = Executive::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let waiter = ex.spawn(
            50,
            Box::new(EvScript {
                steps: vec![Step::Compute(us(50)), Step::EvReceive(0b100)],
                idx: 0,
                got: got.clone(),
            }),
        );
        ex.isr_ev_send(waiter, 0b100);
        ex.run_until(SimTime::from_millis(1));
        assert!(ex.is_done(waiter));
        assert_eq!(*got.borrow(), vec![0b100]);
    }

    #[test]
    fn task_to_task_event_send() {
        let mut ex = Executive::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let waiter = ex.spawn(
            100,
            Box::new(EvScript {
                steps: vec![Step::EvReceive(1)],
                idx: 0,
                got: got.clone(),
            }),
        );
        let _signaller = ex.spawn(
            10,
            Box::new(EvScript {
                steps: vec![Step::Compute(us(200)), Step::EvSend(waiter, 1)],
                idx: 0,
                got: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        ex.run_until(SimTime::from_millis(5));
        assert!(ex.is_done(waiter));
        assert_eq!(*got.borrow(), vec![1]);
    }

    #[test]
    fn idle_executive_advances_to_until() {
        let mut ex = Executive::new();
        ex.run_until(SimTime::from_secs(3));
        assert_eq!(ex.now(), SimTime::from_secs(3));
    }
}

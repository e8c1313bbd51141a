//! The event engine against a reference model.
//!
//! The model below is the engine's contract written as plainly as possible:
//! pending events live in a `Vec`, firing removes the minimum `(time, seq)`
//! by linear scan, and cancel is by id. Random programs of schedules,
//! cancels and time advances run on both, and the firing logs and
//! `(now, pending, fired)` trajectories must match bit for bit.
//! A recurring event is a handler that schedules its next occurrence as
//! its last action, and a cancel of its id reaches whichever occurrence is
//! pending. Instants range from sub-microsecond delays to the last ones
//! below 2^88 fs, the first instant the engine refuses.
//! One-shot closures capture payloads of 0, 8, 32 and more than
//! [`INLINE_BYTES`] bytes, so both of the engine's closure storage paths
//! (inline and boxed) run in every program.

use nti_simcore::engine::INLINE_BYTES;
use nti_simcore::{Engine, EventId, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

/// Firing log: (label, fire time in fs). The label encodes which schedule
/// op produced the event (and the occurrence number for recurring ones), so a
/// log comparison catches reordering *between* distinct events as well as
/// lost or duplicated occurrences.
type Log = Vec<(u64, u128)>;

/// One observable step: (now fs, pending, events_fired) after each op.
type Trajectory = Vec<(u128, u64, u64)>;

/// Occurrences after which a recurring event stops rescheduling itself.
const RECURRING_FIRES: u64 = 50;

/// Label offset of the one-shot an echoing recurring event schedules for
/// the instant of its own next occurrence.
const ECHO: u64 = 500_000;

/// What a model event does when it fires.
#[derive(Clone, Copy)]
enum Action {
    /// Log `label`.
    Once(u64),
    /// Log occurrence `n` of recurring event `label`; with `echo`, schedule
    /// a one-shot for `period` later. Then schedule occurrence `n + 1`
    /// `period` later, under the same id, unless this was occurrence
    /// [`RECURRING_FIRES`].
    Recur {
        label: u64,
        period: u128,
        n: u64,
        echo: bool,
    },
}

/// The reference engine: `(time, seq, id, action)` per pending event.
#[derive(Default)]
struct Model {
    now: u128,
    seq: u64,
    fired: u64,
    next_id: usize,
    pending: Vec<(u128, u64, usize, Action)>,
}

impl Model {
    fn push(&mut self, at: u128, id: usize, action: Action) {
        self.pending.push((at, self.seq, id, action));
        self.seq += 1;
    }

    fn schedule(&mut self, at: u128, action: Action) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.push(at, id, action);
        id
    }

    fn cancel(&mut self, id: usize) {
        self.pending.retain(|&(_, _, i, _)| i != id);
    }

    fn run_until(&mut self, log: &mut Log, until: u128) {
        loop {
            let next = (0..self.pending.len())
                .filter(|&i| self.pending[i].0 <= until)
                .min_by_key(|&i| (self.pending[i].0, self.pending[i].1));
            let Some(i) = next else { break };
            let (at, _, id, action) = self.pending.remove(i);
            self.now = at;
            self.fired += 1;
            match action {
                Action::Once(label) => log.push((label, at)),
                Action::Recur {
                    label,
                    period,
                    n,
                    echo,
                } => {
                    let occurrence = label * 1_000_000 + n;
                    log.push((occurrence, at));
                    if echo {
                        self.schedule(at + period, Action::Once(occurrence + ECHO));
                    }
                    if n + 1 < RECURRING_FIRES {
                        let n = n + 1;
                        let next = Action::Recur {
                            label,
                            period,
                            n,
                            echo,
                        };
                        self.push(at + period, id, next);
                    }
                }
            }
        }
        self.now = self.now.max(until);
    }
}

/// The last instant the engine accepts: 2^88 fs − 1.
const LAST: u128 = (1 << 88) - 1;

/// Width of the top scale: instants within ~2 µs of [`LAST`].
const TOP: u128 = 1 << 31;

/// Map raw randomness onto an instant from `now` to [`LAST`], at one of
/// five scales: a delay below one microsecond, up to ~18 ms, up to ~77 min
/// or beyond ~20 h, or an absolute instant at or just below [`LAST`].
fn instant(now: u128, a: u64) -> u128 {
    let v = (a / 5) as u128;
    let at = match a % 5 {
        0 => now + v % (1 << 30),
        1 => now + v % (1 << 44),
        2 => now + v % (1 << 62),
        3 => now + (1 << 66) + v % (1 << 62),
        _ => match v % 4 {
            0 => LAST,
            _ => LAST - (v >> 2) % TOP,
        },
    };
    at.clamp(now, LAST)
}

/// Latest first instant of a recurring event: its 50 occurrences and their
/// echoes (periods below 2^50 fs) stay at or below [`LAST`].
const LAST_RECURRING_START: u128 = LAST - (1 << 56);

/// Schedule a one-shot that captures `[label; N]` and, when it fires,
/// checks the payload and logs `label`.
fn schedule_once<const N: usize>(eng: &mut Engine<Log>, at: SimTime, label: u64) -> EventId {
    let payload = [label; N];
    eng.schedule_at(at, move |log: &mut Log, e| {
        assert_eq!(payload, [label; N], "captured payload corrupted");
        log.push((label, e.now().as_fs()));
    })
}

/// The schedule of one recurring event: each occurrence logs itself,
/// optionally echoes, and schedules the next one as its last action.
struct Recur {
    label: u64,
    period: SimDuration,
    echo: bool,
    /// The id of the occurrence scheduled last.
    pending: Rc<Cell<Option<EventId>>>,
}

impl Recur {
    /// Schedule occurrence `n` at `at`.
    fn schedule(self, eng: &mut Engine<Log>, at: SimTime, n: u64) {
        let pending = self.pending.clone();
        let id = eng.schedule_at(at, move |log: &mut Log, e| {
            let occurrence = self.label * 1_000_000 + n;
            log.push((occurrence, e.now().as_fs()));
            if self.echo {
                e.schedule_after(self.period, move |log: &mut Log, e| {
                    log.push((occurrence + ECHO, e.now().as_fs()));
                });
            }
            if n + 1 < RECURRING_FIRES {
                let next = e.now() + self.period;
                self.schedule(e, next, n + 1);
            }
        });
        pending.set(Some(id));
    }
}

/// Engine and model side by side, driven by one program.
struct Pair {
    eng: Engine<Log>,
    model: Model,
    log: Log,
    model_log: Log,
    /// The engine id a cancel of each schedule op reaches (for a
    /// recurring event, its latest occurrence), and the model id.
    ids: Vec<(Rc<Cell<Option<EventId>>>, usize)>,
}

impl Pair {
    fn once(&mut self, at: u128, label: u64) {
        let (eng, t) = (&mut self.eng, SimTime::from_fs(at));
        let id = match label % 4 {
            0 => schedule_once::<0>(eng, t, label),
            1 => schedule_once::<1>(eng, t, label),
            2 => schedule_once::<4>(eng, t, label),
            _ => schedule_once::<{ INLINE_BYTES / 8 + 1 }>(eng, t, label),
        };
        let mid = self.model.schedule(at, Action::Once(label));
        self.ids.push((Rc::new(Cell::new(Some(id))), mid));
    }

    fn recur(&mut self, first: u128, period: SimDuration, label: u64, echo: bool) {
        let pending = Rc::new(Cell::new(None));
        let r = Recur {
            label,
            period,
            echo,
            pending: pending.clone(),
        };
        r.schedule(&mut self.eng, SimTime::from_fs(first), 0);
        let mid = self.model.schedule(
            first,
            Action::Recur {
                label,
                period: period.as_fs(),
                n: 0,
                echo,
            },
        );
        self.ids.push((pending, mid));
    }

    fn cancel(&mut self, k: usize) {
        let (id, mid) = &self.ids[k];
        self.eng.cancel(id.get().expect("set when scheduled"));
        self.model.cancel(*mid);
    }

    fn run_until(&mut self, until: u128) {
        self.eng.run_until(&mut self.log, SimTime::from_fs(until));
        self.model.run_until(&mut self.model_log, until);
    }

    fn step(&self) -> ((u128, u64, u64), (u128, u64, u64)) {
        let e = &self.eng;
        let m = &self.model;
        (
            (e.now().as_fs(), e.pending() as u64, e.events_fired()),
            (m.now, m.pending.len() as u64, m.fired),
        )
    }
}

/// Interpret one random program on the engine and the model, returning
/// each side's firing log and per-op trajectory.
fn run_program(ops: &[(u8, u64, u64)]) -> ((Log, Trajectory), (Log, Trajectory)) {
    let mut p = Pair {
        eng: Engine::new(),
        model: Model::default(),
        log: Vec::new(),
        model_log: Vec::new(),
        ids: Vec::new(),
    };
    let (mut traj, mut model_traj) = (Trajectory::new(), Trajectory::new());
    for (i, &(op, a, b)) in ops.iter().enumerate() {
        let label = i as u64;
        let now = p.eng.now().as_fs();
        match op % 8 {
            // One-shot at any scale.
            0 => p.once(instant(now, a), label),
            // Same-instant burst: three events at one timestamp fire in
            // schedule (FIFO) order.
            1 => {
                let at = instant(now, a);
                for k in 0..3 {
                    p.once(at, label * 10 + k);
                }
            }
            // Recurring at any scale; it stops after RECURRING_FIRES
            // occurrences, so long advances stay bounded. An echoing one
            // ties each next occurrence with a one-shot its handler
            // scheduled just before, which pins the order of their seqs.
            2 => {
                let first = instant(now, a);
                if first <= LAST_RECURRING_START {
                    let period = SimDuration::from_millis(250 + b % 750);
                    p.recur(first, period, label, b >> 63 == 1);
                }
            }
            // Cancel an earlier id — possibly one that already fired or
            // was already cancelled, which must be a no-op.
            3 => {
                if !p.ids.is_empty() {
                    p.cancel(a as usize % p.ids.len());
                }
            }
            // Advance time, sometimes by hours; to an instant at or just
            // below LAST, all the way there.
            4 => {
                let at = instant(now, a);
                p.run_until(if at > LAST - TOP {
                    at
                } else {
                    now + (at - now) / 2 + 1
                });
            }
            // Same-granule burst: four distinct instants inside one
            // 2³⁰ fs (~1 µs) window.
            5 => {
                let at0 = instant(now, a);
                let room = (1 << 30) - (at0 & ((1 << 30) - 1));
                for k in 0..4u64 {
                    let off = (b.wrapping_mul(k + 1) as u128) % room;
                    p.once(at0 + off, label * 10 + k);
                }
            }
            // Mass-cancel everything issued so far.
            6 => {
                for k in 0..p.ids.len() {
                    p.cancel(k);
                }
            }
            // One-shot far beyond every relative scale.
            _ => p.once((now + (1 << 67) + a as u128).min(LAST), label),
        }
        let (e, m) = p.step();
        traj.push(e);
        model_traj.push(m);
    }
    // Final bounded drain so late one-shots get a chance to fire.
    p.run_until((p.eng.now().as_fs() + SimDuration::from_millis(200).as_fs()).min(LAST));
    let (e, m) = p.step();
    traj.push(e);
    model_traj.push(m);
    ((p.log, traj), (p.model_log, model_traj))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine produces the model's firing log (same events, same
    /// order, same times — FIFO ties included) and its (now, pending,
    /// fired) trajectory for any program of schedules, cancels and
    /// advances.
    #[test]
    fn engine_matches_reference_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..40)
    ) {
        let ((log, traj), (model_log, model_traj)) = run_program(&ops);
        prop_assert_eq!(log, model_log, "firing logs diverge");
        prop_assert_eq!(traj, model_traj, "observable trajectories diverge");
    }

    /// Same-instant FIFO: any number of events scheduled for one instant
    /// (some before, some during dispatch at that instant) fire in exact
    /// schedule order.
    #[test]
    fn same_instant_fifo_order(n_pre in 1usize..12, n_mid in 0usize..8, off in 0u64..(1 << 30)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log: Log = Vec::new();
        let at = SimTime::from_fs(1 + off as u128);
        for i in 0..n_pre {
            let mid = i == 0;
            eng.schedule_at(at, move |log: &mut Log, e| {
                log.push((i as u64, e.now().as_fs()));
                if mid {
                    // Schedule more work for the *same instant* from
                    // inside the dispatch of that instant.
                    for j in 0..n_mid {
                        let l = 1000 + j as u64;
                        e.schedule_at(at, move |log: &mut Log, e| {
                            log.push((l, e.now().as_fs()));
                        });
                    }
                }
            });
        }
        eng.run_until(&mut log, SimTime::from_secs(1));
        let want: Vec<u64> = (0..n_pre as u64).chain((0..n_mid as u64).map(|j| 1000 + j)).collect();
        let got: Vec<u64> = log.iter().map(|&(l, _)| l).collect();
        prop_assert_eq!(got, want, "FIFO order broken");
        prop_assert!(log.iter().all(|&(_, t)| t == at.as_fs()));
    }
}

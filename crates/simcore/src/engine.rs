//! A deterministic discrete-event engine.
//!
//! The engine is generic over the simulated world state `S` so that the
//! hardware crates stay decoupled: events are closures receiving
//! `(&mut S, &mut Engine<S>)`. Ties at the same instant fire in scheduling
//! order (a monotone sequence number), which makes every run bit-for-bit
//! reproducible for a given seed.
//!
//! Scheduling every oscillator tick of a 10 MHz clock would be infeasible
//! (10¹⁰ events per simulated 1000 s), so hardware models are *lazily
//! evaluated*: only timer expiries, packet events, and algorithm actions are
//! scheduled; clock state is advanced on demand (see `nti-utcsu`).
//!
//! ## Internals
//!
//! Events live in a **slab**: a `Vec` of generation-tagged slots with a free
//! list, so the queue moves only packed `(generation, index)` u64
//! references. Firing and [`Engine::cancel`] (O(1)) both free the slot and
//! bump its generation, which makes every queued reference to the old
//! occupant stale. `pending()` therefore counts *live* events only, and
//! nothing accumulates for cancelled ids.
//!
//! The queue is one binary heap of 32-byte `{ key: u128, packed ref }`
//! entries. The key holds the instant's femtoseconds in its high bits and
//! a monotone sequence number in its low 40 bits, so one integer compare
//! orders two entries by `(time, seq)`. An instant must lie below 2^88 fs
//! (~9,800 years) to fit a key, and [`Engine::schedule_at`] panics at or
//! past it. Before the sequence number would pass 2^40, the queued entries
//! are renumbered `0, 1, …` in order. Stale references are dropped lazily
//! when they reach the head. A recurring event is a handler that schedules
//! its next occurrence itself.
//!
//! A closure is stored **inline** in its slab slot: a [`INLINE_BYTES`]-byte,
//! 16-aligned buffer plus the closure type's call and drop functions. A
//! closure that is bigger or more aligned than the buffer is boxed and the
//! box is stored inline instead, so firing has one path and most events
//! allocate nothing.
//!
//! | operation                             | cost                         |
//! |---------------------------------------|------------------------------|
//! | `schedule_at` / `schedule_after`      | O(log n)                     |
//! | `cancel`                              | O(1)                         |
//! | fire one event                        | O(log n) amortized           |
//! | `next_event_time`                     | O(1) amortized               |
//! | `pending` / `events_fired` / `now`    | O(1)                         |
//! | renumbering, once per ~2^40 schedules | O(n log n)                   |
//!
//! `n` counts queued entries, live and stale; each stale entry is popped at
//! most once. A hierarchical timer
//! wheel and a heap↔wheel adaptive queue were measured against this heap
//! on the repository benchmark and bought nothing end to end (DESIGN.md §4
//! has the numbers and the rule for when a wheel may come back).
//!
//! ## Metrics
//!
//! The engine counts the events it schedules, fires and cancels in plain
//! `u64`s, observed or not. With an observer attached
//! ([`Engine::attach_observer`]), the `engine/events_*` counters receive
//! what those counts gained at the end of each [`Engine::run_until`], at a
//! re-attach (into the replaced observer) and when the engine is dropped,
//! so they equal the engine's counts at each of those points. One fired
//! event in 64 is sampled: its handler's wall time goes to
//! `engine/handler_busy_ns` and the queue depth after it to
//! `engine/queue_depth`. Whether the engine is traced is resolved once, at
//! attach time. Every other event touches no metric at all.

use crate::time::{SimDuration, SimTime};
use nti_obs::{keys, publish, Counter, LocalHist, Payload, SimObserver, Subsystem, GLOBAL_NODE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;
use std::sync::Arc;

/// Handle to a scheduled event, usable for cancellation.
///
/// The id is a slab index plus the slot's generation at allocation time;
/// once the event fires or is cancelled the generation advances, so a stale
/// id can never reach a different event that later reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// A boxed event closure. The engine stores closures inline and boxes only
/// those that do not fit, but it owns them exactly as this type would.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Engine<S>)>;

/// Size in bytes of a slab slot's inline closure buffer. Closures
/// up to this size (and 16-byte alignment) are stored without an
/// allocation; larger ones are boxed.
pub const INLINE_BYTES: usize = 48;

/// The inline closure buffer: raw bytes, never read as anything but the
/// one closure type its [`OnceFn`]'s `call` and `drop` were instantiated
/// for.
#[repr(C, align(16))]
struct InlineBuf([MaybeUninit<u8>; INLINE_BYTES]);

/// Whether a value of type `T` can live in an [`InlineBuf`].
const fn fits<T>() -> bool {
    size_of::<T>() <= INLINE_BYTES && align_of::<T>() <= align_of::<InlineBuf>()
}

/// A pending closure stored in its slab slot: the closure's bytes
/// plus its type's two operations. The two function pointers fill what
/// would otherwise be alignment padding after the buffer, so the value is
/// 64 bytes, the same as a buffer plus one pointer to a `'static` table
/// (which would also need `S: 'static`).
///
/// Invariant: `buf` holds an initialized value of exactly the closure type
/// `call` and `drop` were instantiated for, and owns it; [`OnceFn::call`]
/// or `Drop` consumes it exactly once.
struct OnceFn<S> {
    buf: InlineBuf,
    /// Move the closure out of the buffer and call it.
    call: unsafe fn(*mut InlineBuf, &mut S, &mut Engine<S>),
    /// Drop the closure in place without calling it.
    drop: unsafe fn(*mut InlineBuf),
    /// The buffer may hold captures of any type (`Rc`s included), so the
    /// engine must stay `!Send`/`!Sync` exactly as with a boxed closure.
    _owns: PhantomData<EventFn<S>>,
}

/// [`OnceFn::call`]'s operation for a buffer holding an `F`.
///
/// # Safety
/// `buf` must hold an initialized `F` that nothing reads or drops again.
unsafe fn call_inline<S, F: FnOnce(&mut S, &mut Engine<S>)>(
    buf: *mut InlineBuf,
    state: &mut S,
    eng: &mut Engine<S>,
) {
    // SAFETY: the caller guarantees `buf` holds an initialized `F` and
    // gives up ownership of it; `fits::<F>()` was checked when it was
    // written, so the cast pointer is in bounds and aligned.
    let f = unsafe { ptr::read(buf.cast::<F>()) };
    f(state, eng);
}

/// [`OnceFn`]'s drop operation for a buffer holding an `F`.
///
/// # Safety
/// `buf` must hold an initialized `F` that nothing reads or drops again.
unsafe fn drop_inline<F>(buf: *mut InlineBuf) {
    // SAFETY: as for `call_inline`: an initialized, owned, aligned `F`.
    unsafe { ptr::drop_in_place(buf.cast::<F>()) }
}

impl<S> OnceFn<S> {
    /// Store `f` inline, or a box of it when it does not fit.
    fn new<F: FnOnce(&mut S, &mut Engine<S>) + 'static>(f: F) -> Self {
        if fits::<F>() {
            Self::inline(f)
        } else {
            Self::inline(Box::new(f))
        }
    }

    fn inline<F: FnOnce(&mut S, &mut Engine<S>) + 'static>(f: F) -> Self {
        // Compile-time constant: `new` boxes whatever does not fit.
        assert!(fits::<F>(), "closure does not fit the inline buffer");
        let mut buf = InlineBuf([MaybeUninit::uninit(); INLINE_BYTES]);
        // SAFETY: `F` fits the buffer's size and alignment (asserted
        // above), and the buffer is uninitialized, so nothing is
        // overwritten without a drop.
        unsafe { ptr::write(buf.0.as_mut_ptr().cast::<F>(), f) };
        OnceFn {
            buf,
            call: call_inline::<S, F>,
            drop: drop_inline::<F>,
            _owns: PhantomData,
        }
    }

    /// Call the closure, consuming it.
    fn call(self, state: &mut S, eng: &mut Engine<S>) {
        // `call_inline` takes the closure over; `Drop` must not run too.
        let mut this = ManuallyDrop::new(self);
        // SAFETY: by the type's invariant `buf` holds the initialized
        // closure `call` was instantiated for; `this` is never dropped, so
        // the closure is read out exactly once. The buffer lives on this
        // stack frame, so slab reallocation inside the handler cannot move
        // it.
        unsafe { (this.call)(&mut this.buf, state, eng) }
    }
}

impl<S> Drop for OnceFn<S> {
    fn drop(&mut self) {
        // SAFETY: by the type's invariant `buf` holds the initialized
        // closure `drop` was instantiated for, and `call` (the only other
        // consumer) never lets this run.
        unsafe { (self.drop)(&mut self.buf) }
    }
}

/// A slab slot. Timing lives in the queue entries, not here — the slab
/// holds only what firing needs, keeping slots small (the slab is the
/// engine's biggest allocation and is accessed in random order).
struct SlabSlot<S> {
    /// Advanced when the occupant fires or is cancelled, so a queued
    /// reference or an id is live exactly while its generation matches.
    gen: u32,
    /// The pending closure, or `None` for a free slot (a member of the
    /// free list).
    body: Option<OnceFn<S>>,
}

#[inline]
fn pack(idx: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}
#[inline]
fn unpack(packed: u64) -> (u32, u32) {
    (packed as u32, (packed >> 32) as u32)
}

/// Low bits of a queue key that hold the sequence number.
const SEQ_BITS: u32 = 40;

/// Sequence numbers stay below this: the queue is renumbered before `seq`
/// would reach it.
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;

/// Instants at or past this many femtoseconds (2^88 fs, ~9,800 years) do
/// not fit a key's high bits; [`Engine::schedule_at`] refuses them.
const FAR_FS: u128 = 1 << (u128::BITS - SEQ_BITS);

/// A heap entry. `key` is `at_fs << SEQ_BITS | seq` (the instant lies below
/// [`FAR_FS`]), so comparing keys is comparing `(time, seq)`; the packed
/// slab reference rides along (it never decides an ordering: keys are
/// unique).
#[derive(Clone, Copy)]
struct QEntry {
    key: u128,
    packed: u64,
}

impl QEntry {
    fn at(&self) -> SimTime {
        SimTime(self.key >> SEQ_BITS)
    }
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for QEntry {}

impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The engine samples one fired handler in this many: it reads the clock
/// around it for `engine/handler_busy_ns` and records the queue depth
/// after it for `engine/queue_depth`, instead of doing both per event.
const BUSY_SAMPLE_EVERY: u64 = 64;

/// The engine's metrics, resolved once at [`Engine::attach_observer`]. The
/// engine counts its events in its own plain `u64`s whether or not an
/// observer is attached; the registry receives what they gained, and the
/// sampled histograms, at the end of each [`Engine::run_until`] and when
/// the engine is dropped or re-attached. Between those points firing an
/// event touches nothing here but the 1-in-[`BUSY_SAMPLE_EVERY`] sample
/// and, when the engine is traced, the trace ring. When no observer is
/// attached the whole block is absent.
struct EngineObs {
    obs: SimObserver,
    /// Whether the observer traces [`Subsystem::Engine`], resolved once:
    /// the tracer's mask is fixed at construction.
    trace: bool,
    /// `engine/events_{scheduled,fired,cancelled}`, in
    /// [`Engine::counts`] order.
    counters: [Arc<Counter>; 3],
    /// The [`Engine::counts`] the last flush published.
    published: [u64; 3],
    /// Queue depth (live events) after each sampled fired event.
    queue_depth: LocalHist,
    /// Wall-clock busy time of each sampled fired handler (nanoseconds).
    busy_ns: LocalHist,
}

/// The event queue plus the simulation clock.
///
/// Event closures may capture anything `'static`, `Rc`s included, so an
/// engine never crosses threads:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nti_simcore::Engine<()>>();
/// ```
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<nti_simcore::Engine<()>>();
/// ```
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    slots: Vec<SlabSlot<S>>,
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Events scheduled, fired, and effectively cancelled so far.
    scheduled: u64,
    fired: u64,
    cancelled: u64,
    queue: BinaryHeap<Reverse<QEntry>>,
    obs: Option<EngineObs>,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Engine<S> {
    /// A fresh engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            scheduled: 0,
            fired: 0,
            cancelled: 0,
            queue: BinaryHeap::new(),
            obs: None,
        }
    }

    /// Attach an observer. A disabled observer detaches instrumentation
    /// entirely (the per-event cost returns to one branch). Metric handles
    /// and the engine's trace flag are resolved here, once, so the hot path
    /// never touches the registry or the trace mask. What the replaced
    /// observer had pending lands in its registry; the new one counts from
    /// here on.
    pub fn attach_observer(&mut self, obs: &SimObserver) {
        self.flush_obs();
        self.obs = if obs.is_enabled() {
            let counter = |key| obs.counter(key).expect("enabled");
            let hist = |key| LocalHist::new(obs.hist(key).expect("enabled"));
            Some(EngineObs {
                obs: obs.clone(),
                trace: obs.tracing(Subsystem::Engine),
                counters: [
                    counter(keys::engine_events_scheduled()),
                    counter(keys::engine_events_fired()),
                    counter(keys::engine_events_cancelled()),
                ],
                published: self.counts(),
                queue_depth: hist(keys::engine_queue_depth()),
                busy_ns: hist(keys::engine_handler_busy_ns()),
            })
        } else {
            None
        };
    }

    /// Events scheduled, fired and cancelled so far.
    fn counts(&self) -> [u64; 3] {
        [self.scheduled, self.fired, self.cancelled]
    }

    /// Publish the counts gained since the last flush and the sampled
    /// histograms into the attached observer's registry. Kept out of line:
    /// it runs once per `run_until`, re-attach or drop, never per event,
    /// and inlined into `run_until` and the drop glue it measurably slowed
    /// the `Cluster::new` that follows a dropped cluster.
    #[inline(never)]
    fn flush_obs(&mut self) {
        let counts = self.counts();
        if let Some(o) = &mut self.obs {
            publish(&o.counters, &mut o.published, counts);
            o.queue_depth.flush();
            o.busy_ns.flush();
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (for instrumentation).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of live pending events (cancelled events are excluded — they
    /// are freed immediately, not tombstoned).
    pub fn pending(&self) -> usize {
        self.live
    }

    fn alloc(&mut self, f: OnceFn<S>) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(s.body.is_none());
            s.body = Some(f);
            (idx, s.gen)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(SlabSlot {
                gen: 0,
                body: Some(f),
            });
            (idx, 0)
        }
    }

    /// Take the closure out of the live slot `idx` and free the slot,
    /// advancing its generation so every reference to it turns stale.
    fn release(&mut self, idx: u32) -> OnceFn<S> {
        let s = &mut self.slots[idx as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        s.body.take().expect("released a free slab slot")
    }

    /// Whether a packed queue reference still points at its original event.
    fn is_live(&self, packed: u64) -> bool {
        let (idx, gen) = unpack(packed);
        self.slots[idx as usize].gen == gen
    }

    /// Schedule `f` to fire at the absolute instant `at`.
    ///
    /// # Panics
    /// If `at` lies in the past (that would silently reorder causality) or
    /// at or past 2^88 fs (~9,800 years), the first instant a queue key
    /// cannot hold.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        assert!(at.0 < FAR_FS, "scheduling at or past 2^88 fs: {at:?}");
        let (idx, gen) = self.alloc(OnceFn::new(f));
        self.live += 1;
        if self.seq == SEQ_LIMIT {
            self.renumber();
        }
        let key = (at.0 << SEQ_BITS) | self.seq as u128;
        self.seq += 1;
        self.queue.push(Reverse(QEntry {
            key,
            packed: pack(idx, gen),
        }));
        self.scheduled += 1;
        if let Some(o) = &self.obs {
            if o.trace {
                o.obs.event(
                    at.as_fs(),
                    GLOBAL_NODE,
                    Subsystem::Engine,
                    "scheduled",
                    Payload::Instant,
                );
            }
        }
        EventId { idx, gen }
    }

    /// Schedule `f` to fire after the given delay.
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancel a previously scheduled event. O(1): frees the slab slot and
    /// advances its generation, turning every queued reference stale.
    /// Cancelling an event that has already fired (or was already
    /// cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let slot = self.slots.get(id.idx as usize);
        if slot.is_some_and(|s| s.gen == id.gen && s.body.is_some()) {
            drop(self.release(id.idx));
            self.cancelled += 1;
        }
    }

    /// Fire the event a (validated) packed reference points to, advancing
    /// the clock to `at`.
    fn fire(&mut self, state: &mut S, at: SimTime, packed: u64) {
        debug_assert!(at >= self.now);
        self.now = at;
        // The only per-event cost with no observer attached is this
        // one branch (`--obs-summary`-off must stay within 2 % of the
        // uninstrumented engine). With one attached, it picks the sampled
        // event.
        let t0 = (self.obs.is_some() && self.fired.is_multiple_of(BUSY_SAMPLE_EVERY))
            .then(std::time::Instant::now);
        self.fired += 1;
        // Free before running so the handler sees this event as fired:
        // cancelling its own id is a no-op and the slot is immediately
        // reusable.
        let (idx, _) = unpack(packed);
        self.release(idx).call(state, self);
        if let Some(o) = &mut self.obs {
            if let Some(t0) = t0 {
                o.busy_ns
                    .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                o.queue_depth.record(self.live as u64);
            }
            if o.trace {
                o.obs.event(
                    self.now.as_fs(),
                    GLOBAL_NODE,
                    Subsystem::Engine,
                    "fired",
                    Payload::Value {
                        value: self.live as i64,
                    },
                );
            }
        }
    }

    /// Fire events in order until the queue is exhausted or the next event
    /// lies beyond `until`; then advance the clock to `until` and flush the
    /// engine's metrics into the observer's registry.
    pub fn run_until(&mut self, state: &mut S, until: SimTime) {
        while let Some((at, packed)) = self.pop_due(until) {
            self.fire(state, at, packed);
        }
        if until > self.now {
            self.now = until;
        }
        self.flush_obs();
    }

    /// Pop the earliest live event if it is due at or before `until`.
    fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
        if self.next_event_time()? > until {
            return None;
        }
        // `next_event_time` left the earliest live event at the head.
        self.queue.pop().map(|Reverse(e)| (e.at(), e.packed))
    }

    /// Give the live heap entries the sequence numbers `0, 1, …` in their
    /// `(time, seq)` order and drop the stale ones, so `seq` restarts far
    /// below [`SEQ_LIMIT`] and every order between queued events holds.
    #[cold]
    fn renumber(&mut self) {
        let mut entries: Vec<QEntry> = std::mem::take(&mut self.queue)
            .into_iter()
            .map(|Reverse(e)| e)
            .filter(|e| self.is_live(e.packed))
            .collect();
        entries.sort_unstable();
        for (seq, e) in entries.iter_mut().enumerate() {
            e.key = (e.key >> SEQ_BITS << SEQ_BITS) | seq as u128;
        }
        self.seq = entries.len() as u64;
        self.queue = entries.into_iter().map(Reverse).collect();
    }

    /// Fire all remaining events (use only for workloads that are known to
    /// quiesce, e.g. tests). Like every [`Engine::run_until`], this leaves
    /// the clock at its bound — here `SimTime::MAX` — not at the last
    /// fired instant.
    pub fn run_to_completion(&mut self, state: &mut S) {
        self.run_until(state, SimTime::MAX);
    }

    /// The instant of the next live (non-cancelled) pending event, if any.
    /// Stale entries met at the head of the queue are dropped here.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(e)) = self.queue.peek() {
            if self.is_live(e.packed) {
                return Some(e.at());
            }
            self.queue.pop();
        }
        None
    }

    /// Move the sequence counter forward to `seq`, so a test reaches the
    /// renumbering without 2^40 schedules.
    #[cfg(test)]
    fn jump_seq(&mut self, seq: u64) {
        assert!((self.seq..=SEQ_LIMIT).contains(&seq));
        self.seq = seq;
    }
}

impl<S> Drop for Engine<S> {
    /// What the observer has pending still lands in its registry.
    fn drop(&mut self) {
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::from_secs(3), |s: &mut Vec<u32>, _| s.push(3));
        eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        eng.run_until(&mut log, SimTime::from_secs(10));
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            eng.schedule_at(t, move |s: &mut Vec<u32>, _| s.push(i));
        }
        eng.run_until(&mut log, t);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(5), |s: &mut Vec<u32>, _| s.push(5));
        eng.run_until(&mut log, SimTime::from_secs(2));
        assert_eq!(log, vec![1]);
        assert_eq!(eng.now(), SimTime::from_secs(2));
        eng.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1, 5]);
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let id = eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        eng.cancel(id);
        eng.run_until(&mut log, SimTime::from_secs(3));
        assert_eq!(log, vec![2]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(
            SimTime::from_secs(1),
            |s: &mut Vec<u32>, e: &mut Engine<Vec<u32>>| {
                s.push(1);
                e.schedule_after(SimDuration::from_secs(1), |s: &mut Vec<u32>, _| s.push(2));
            },
        );
        eng.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), |_, _| {});
        eng.run_until(&mut (), SimTime::from_secs(6));
        eng.schedule_at(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn next_event_time_skips_cancelled() {
        let mut eng: Engine<()> = Engine::new();
        let id = eng.schedule_at(SimTime::from_secs(1), |_, _| {});
        eng.schedule_at(SimTime::from_secs(2), |_, _| {});
        eng.cancel(id);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(2)));
    }

    /// Regression (PR 5): `pending()` must exclude cancelled events — the
    /// old tombstone scheme counted them until they drained.
    #[test]
    fn pending_excludes_cancelled() {
        let mut eng: Engine<()> = Engine::new();
        let ids: Vec<_> = (0..100)
            .map(|i| eng.schedule_at(SimTime::from_nanos(i + 1), |_, _| {}))
            .collect();
        assert_eq!(eng.pending(), 100);
        for id in &ids[..60] {
            eng.cancel(*id);
        }
        assert_eq!(eng.pending(), 40);
        eng.run_until(&mut (), SimTime::from_secs(1));
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_fired(), 40);
    }

    /// Regression (PR 5): ids that drain via `run_until` leave no
    /// bookkeeping behind — a later cancel of a fired id is a no-op and
    /// does not disturb a new event that reuses the slab slot.
    #[test]
    fn cancel_after_fire_is_noop_even_with_slot_reuse() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let stale = eng.schedule_at(SimTime::from_nanos(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.run_until(&mut log, SimTime::from_nanos(2));
        // The slot of `stale` is free now; this event reuses it.
        eng.schedule_at(SimTime::from_nanos(3), |s: &mut Vec<u32>, _| s.push(2));
        eng.cancel(stale);
        eng.run_until(&mut log, SimTime::from_nanos(4));
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut eng: Engine<()> = Engine::new();
        let id = eng.schedule_at(SimTime::from_nanos(5), |_, _| {});
        eng.cancel(id);
        assert_eq!(eng.pending(), 0);
        eng.cancel(id); // must not underflow the live count
        assert_eq!(eng.pending(), 0);
    }

    /// The engine publishes its own counts at the end of each `run_until`:
    /// after every chunk the registry's counters equal them, and the
    /// queue-depth and busy-time histograms hold one sample per
    /// [`BUSY_SAMPLE_EVERY`] fired events.
    #[test]
    fn observer_metrics_equal_engine_counts_after_each_run_until() {
        let obs = SimObserver::enabled();
        let mut eng: Engine<u64> = Engine::new();
        eng.attach_observer(&obs);
        let mut ticks = 0u64;
        let ids: Vec<_> = (0..300u64)
            .map(|i| eng.schedule_at(SimTime::from_micros(i * 997 + 1), |_, _| {}))
            .collect();
        for id in &ids[..50] {
            eng.cancel(*id);
        }
        /// Count an occurrence and schedule the next one a millisecond on.
        fn tick(ticks: &mut u64, e: &mut Engine<u64>) {
            *ticks += 1;
            e.schedule_after(SimDuration::from_millis(1), tick);
        }
        eng.schedule_at(SimTime::from_millis(1), tick);
        let reg = &obs.core().expect("enabled").registry;
        let counts = || registry_counts(&obs);
        let hist = |key| reg.find_hist(key).expect("registered");
        assert_eq!(counts(), [0; 3], "not flushed yet");
        for chunk in 1..=4u64 {
            eng.run_until(&mut ticks, SimTime::from_millis(chunk * 100));
            let fired = eng.events_fired();
            assert_eq!(counts(), eng.counts());
            // Each tick schedules the next one.
            assert_eq!(eng.counts(), [300 + 1 + ticks, fired, 50]);
            let sampled = fired.div_ceil(BUSY_SAMPLE_EVERY);
            assert_eq!(hist(keys::engine_queue_depth()).count(), sampled);
            assert_eq!(hist(keys::engine_handler_busy_ns()).count(), sampled);
        }
        assert_eq!(eng.events_fired(), 250 + ticks);
        // What is pending when the engine goes away still lands.
        let id = eng.schedule_at(SimTime::from_secs(1), |_, _| {});
        eng.schedule_at(SimTime::from_secs(1), |_, _| {});
        eng.cancel(id);
        let last = eng.counts();
        assert_ne!(counts(), last);
        drop(eng);
        assert_eq!(counts(), last);
    }

    /// The registry's `engine/events_{scheduled,fired,cancelled}`.
    fn registry_counts(obs: &SimObserver) -> [u64; 3] {
        let reg = &obs.core().expect("enabled").registry;
        [
            keys::engine_events_scheduled(),
            keys::engine_events_fired(),
            keys::engine_events_cancelled(),
        ]
        .map(|key| reg.find_counter(key).expect("registered").get())
    }

    /// Re-attaching lands what is pending in the first observer's
    /// registry, and the second one counts only what follows.
    #[test]
    fn reattach_lands_pending_counts_in_the_first_registry() {
        let (first, second) = (SimObserver::enabled(), SimObserver::enabled());
        let mut eng: Engine<()> = Engine::new();
        eng.attach_observer(&first);
        eng.schedule_at(SimTime::from_nanos(1), |_, _| {});
        let id = eng.schedule_at(SimTime::from_nanos(2), |_, _| {});
        eng.run_until(&mut (), SimTime::from_nanos(1));
        assert_eq!(registry_counts(&first), [2, 1, 0]);
        // Pending at the swap: one more schedule and the cancel.
        eng.schedule_at(SimTime::from_nanos(3), |_, _| {});
        eng.cancel(id);
        eng.attach_observer(&second);
        assert_eq!(registry_counts(&first), [3, 1, 1]);
        assert_eq!(registry_counts(&second), [0; 3]);
        eng.schedule_at(SimTime::from_nanos(4), |_, _| {});
        eng.run_until(&mut (), SimTime::from_nanos(10));
        assert_eq!(registry_counts(&first), [3, 1, 1], "the first stops");
        assert_eq!(registry_counts(&second), [1, 2, 0]);
        // Detaching lands the second observer's pending counts too.
        eng.schedule_at(SimTime::from_nanos(11), |_, _| {});
        eng.attach_observer(&SimObserver::disabled());
        assert_eq!(registry_counts(&second), [2, 2, 0]);
        drop(eng);
        assert_eq!(registry_counts(&second), [2, 2, 0]);
    }

    /// An instant at 2^88 fs does not fit a queue key, so scheduling it
    /// panics, as scheduling into the past does.
    #[test]
    #[should_panic(expected = "scheduling at or past 2^88 fs")]
    fn scheduling_at_far_fs_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(SimTime(FAR_FS), |_, _| {});
    }

    /// Events scheduled for the instant currently being dispatched keep
    /// FIFO order behind the ones already queued for it.
    #[test]
    fn same_instant_events_scheduled_during_dispatch_keep_fifo() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let t = SimTime::from_micros(7);
        eng.schedule_at(t, move |s: &mut Vec<u32>, e: &mut Engine<Vec<u32>>| {
            s.push(0);
            e.schedule_at(t, |s: &mut Vec<u32>, _| s.push(2));
        });
        eng.schedule_at(t, |s: &mut Vec<u32>, _| s.push(1));
        eng.run_until(&mut log, SimTime::from_micros(8));
        assert_eq!(log, vec![0, 1, 2]);
    }

    /// An idle `run_until` costs O(1) however far it advances: days of
    /// simulated time with one far-future event pending are crossed in
    /// 100k small steps, and scheduling right after the gap still fires in
    /// order.
    #[test]
    fn idle_advance_across_days() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let at = SimTime::from_secs(3 * 86_400);
        eng.schedule_at(at, |s: &mut Vec<u32>, _| s.push(1));
        // 100k idle advances of ~2.6 s each cross the three days.
        let step = SimDuration::from_fs(3 * 86_400 * 1_000_000_000_000_000 / 100_000 + 1);
        for _ in 0..100_000 {
            eng.run_until(&mut log, eng.now() + step);
        }
        assert_eq!(log, vec![1]);
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_fired(), 1);
        assert_eq!(eng.now(), SimTime::ZERO + step * 100_000);

        let gap_end = eng.now();
        for i in 0..10u32 {
            eng.schedule_after(
                SimDuration::from_micros(i as u64 + 1),
                move |s: &mut Vec<u32>, _| s.push(10 + i),
            );
        }
        assert_eq!(
            eng.next_event_time(),
            Some(gap_end + SimDuration::from_micros(1))
        );
        eng.run_until(&mut log, gap_end + SimDuration::from_millis(1));
        assert_eq!(log[1..], (10..20).collect::<Vec<_>>()[..]);
        assert_eq!(eng.events_fired(), 11);
    }

    /// Counts its drops in a shared cell.
    struct Tracked(std::rc::Rc<std::cell::Cell<u32>>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// A capture more aligned than the inline buffer.
    #[derive(Clone, Copy, PartialEq, Debug)]
    #[repr(align(32))]
    struct Aligned32([u8; 32]);

    /// One closure shape per storage path: inline (8 bytes), boxed because
    /// too big (80 bytes), boxed because over-aligned (align 32).
    fn storage_paths() -> [(&'static str, u64); 3] {
        [("inline", 0), ("big", 1), ("aligned", 2)]
    }

    /// Schedule a one-shot of storage path `path` at `at` that captures a
    /// [`Tracked`] on `drops` and, when it fires, logs `tag` after checking
    /// its captured payload.
    fn schedule_tracked(
        eng: &mut Engine<Vec<u64>>,
        path: u64,
        at: SimTime,
        drops: &std::rc::Rc<std::cell::Cell<u32>>,
        tag: u64,
    ) -> EventId {
        let t = Tracked(drops.clone());
        match path {
            0 => eng.schedule_at(at, move |log: &mut Vec<u64>, _| {
                let _t = &t;
                log.push(tag);
            }),
            1 => {
                let big = [tag; 9];
                assert!(size_of::<([u64; 9], Tracked)>() > INLINE_BYTES);
                eng.schedule_at(at, move |log: &mut Vec<u64>, _| {
                    let _t = &t;
                    assert_eq!(big, [tag; 9]);
                    log.push(tag);
                })
            }
            _ => {
                let al = Aligned32([tag as u8; 32]);
                eng.schedule_at(at, move |log: &mut Vec<u64>, _| {
                    let _t = &t;
                    assert_eq!(al, Aligned32([tag as u8; 32]));
                    log.push(tag);
                })
            }
        }
    }

    #[test]
    fn inline_closure_fits_one_cache_line() {
        assert_eq!(size_of::<OnceFn<()>>(), 64);
        assert!(fits::<(u64, u64, u64, u64, u64, u64)>());
        assert!(!fits::<[u8; INLINE_BYTES + 1]>());
        assert!(!fits::<Aligned32>());
    }

    /// Every storage path drops its captures exactly once whether the
    /// event fires, is cancelled, or is still pending when the engine is
    /// dropped.
    #[test]
    fn captures_drop_exactly_once_on_every_path() {
        use std::cell::Cell;
        use std::rc::Rc;
        for (name, path) in storage_paths() {
            // Fired.
            let drops = Rc::new(Cell::new(0));
            let mut eng: Engine<Vec<u64>> = Engine::new();
            let mut log = Vec::new();
            schedule_tracked(&mut eng, path, SimTime::from_nanos(1), &drops, 7);
            assert_eq!(drops.get(), 0, "{name}: dropped before firing");
            eng.run_until(&mut log, SimTime::from_nanos(2));
            assert_eq!(
                (log.as_slice(), drops.get()),
                (&[7][..], 1),
                "{name}: fired"
            );

            // Cancelled (and never fired).
            let id = schedule_tracked(&mut eng, path, SimTime::from_nanos(3), &drops, 8);
            eng.cancel(id);
            assert_eq!(drops.get(), 2, "{name}: cancel drops at once");
            eng.run_until(&mut log, SimTime::from_nanos(4));
            assert_eq!((log.len(), drops.get()), (1, 2), "{name}: cancelled");

            // Pending when the engine is dropped.
            schedule_tracked(&mut eng, path, SimTime::from_nanos(5), &drops, 9);
            drop(eng);
            assert_eq!(drops.get(), 3, "{name}: engine drop");
        }
    }

    /// A handler that panics drops its captures exactly once, during the
    /// unwind, and the engine dropped afterwards does not drop them again.
    #[test]
    fn panicking_handler_drops_captures_once() {
        use std::cell::Cell;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::rc::Rc;
        for (name, path) in storage_paths() {
            let drops = Rc::new(Cell::new(0));
            let mut eng: Engine<()> = Engine::new();
            let t = Tracked(drops.clone());
            let at = SimTime::from_nanos(1);
            match path {
                0 => eng.schedule_at(at, move |_, _| {
                    let _t = &t;
                    panic!("handler panics");
                }),
                1 => {
                    let big = [0u64; 9];
                    eng.schedule_at(at, move |_, _| {
                        let _t = (&t, big);
                        panic!("handler panics");
                    })
                }
                _ => {
                    let al = Aligned32([0; 32]);
                    eng.schedule_at(at, move |_, _| {
                        let _t = (&t, al);
                        panic!("handler panics");
                    })
                }
            };
            let r = catch_unwind(AssertUnwindSafe(|| eng.run_until(&mut (), at)));
            assert!(r.is_err(), "{name}: the handler's panic propagates");
            assert_eq!(drops.get(), 1, "{name}: dropped during the unwind");
            drop(eng);
            assert_eq!(drops.get(), 1, "{name}: no second drop");
        }
    }

    /// A handler may grow the slab (reallocating it) while it runs: its
    /// closure was moved out of the slot first, so its captures stay
    /// intact.
    #[test]
    fn handler_survives_slab_reallocation() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        let payload = [0xA5A5_5A5A_u64; 5];
        eng.schedule_at(SimTime::from_nanos(1), move |log: &mut Vec<u64>, e| {
            for i in 0..1_000u64 {
                e.schedule_after(
                    SimDuration::from_nanos(i + 1),
                    move |log: &mut Vec<u64>, _| log.push(i),
                );
            }
            log.push(payload.iter().sum());
        });
        eng.run_until(&mut log, SimTime::from_micros(5));
        assert_eq!(log[0], payload.iter().sum::<u64>());
        assert_eq!(log[1..], (0..1_000).collect::<Vec<_>>()[..]);
    }

    /// Burst-schedule → cancel-all → long quiet → sparse trickle: no
    /// cancelled event fires or counts as pending, the stale entries are
    /// gone once the head is inspected, and every trickle event fires at
    /// exactly its scheduled instant.
    #[test]
    fn cancel_all_then_trickle() {
        type Log = Vec<(u32, SimTime)>;
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Vec::new();
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            let at = SimTime::from_fs((i as u128 + 1) * 7_777_777);
            ids.push(eng.schedule_at(at, move |s: &mut Log, e| s.push((i as u32, e.now()))));
        }
        let clump = SimTime::from_millis(40);
        for _ in 0..64 {
            ids.push(eng.schedule_at(clump, |s: &mut Log, e| s.push((u32::MAX, e.now()))));
        }
        for id in ids {
            eng.cancel(id);
        }
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.next_event_time(), None);
        for _ in 0..8 {
            eng.run_until(&mut log, eng.now() + SimDuration::from_secs(30));
        }
        assert!(log.is_empty(), "a cancelled event fired");
        assert_eq!(eng.events_fired(), 0);

        let quiet_end = SimTime::from_secs(240);
        assert_eq!(eng.now(), quiet_end);
        for i in 0..200u32 {
            eng.schedule_after(SimDuration::from_millis(3), move |s: &mut Log, e| {
                s.push((1_000_000 + i, e.now()))
            });
            eng.run_until(&mut log, eng.now() + SimDuration::from_millis(10));
        }
        let want: Log = (0..200u32)
            .map(|i| {
                let at = quiet_end + SimDuration::from_millis(10 * i as u64 + 3);
                (1_000_000 + i, at)
            })
            .collect();
        assert_eq!(log, want);
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_fired(), 200);
    }

    /// A queue entry is one `u128` key plus the packed reference, 32
    /// bytes, and the last two instants below 2^88 fs fit a key and fire
    /// in order.
    #[test]
    fn key_layout_and_far_boundary() {
        assert_eq!(size_of::<Reverse<QEntry>>(), 32);
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime(FAR_FS - 1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime(FAR_FS - 2), |s: &mut Vec<u32>, _| s.push(0));
        assert_eq!(eng.next_event_time(), Some(SimTime(FAR_FS - 2)));
        let mut log = Vec::new();
        eng.run_to_completion(&mut log);
        assert_eq!(log, vec![0, 1]);
        assert_eq!(eng.events_fired(), 2);
    }

    /// Renumbering before the sequence number passes 2^40 keeps
    /// same-instant FIFO order (also when it happens while that instant
    /// is being dispatched) and drops cancelled entries without firing
    /// them.
    #[test]
    fn renumbering_keeps_fifo_and_drops_cancelled() {
        type Eng = Engine<Vec<u32>>;
        let mut eng: Eng = Engine::new();
        let mut log = Vec::new();
        let t = SimTime::from_micros(5);
        eng.schedule_at(t, move |s: &mut Vec<u32>, e: &mut Eng| {
            s.push(1);
            // Scheduled during dispatch of `t`: behind 2, 3 and 4.
            e.schedule_at(t, |s: &mut Vec<u32>, _| s.push(5));
        });
        let cancelled = eng.schedule_at(t, |s: &mut Vec<u32>, _| s.push(999));
        eng.schedule_at(SimTime::from_micros(4), |s: &mut Vec<u32>, _| s.push(0));
        eng.jump_seq(SEQ_LIMIT - 2);
        eng.schedule_at(t, move |s: &mut Vec<u32>, e: &mut Eng| {
            s.push(2);
            // A second renumbering, inside the dispatch of `t`.
            e.jump_seq(SEQ_LIMIT);
            e.schedule_at(t, |s: &mut Vec<u32>, _| s.push(6));
        });
        eng.schedule_at(t, |s: &mut Vec<u32>, _| s.push(3));
        eng.cancel(cancelled);
        assert_eq!(eng.seq, SEQ_LIMIT);
        // The first renumbering: 0, 1, 2 and 3 are live, `cancelled` is
        // dropped, and 4 takes the next number.
        eng.schedule_at(t, |s: &mut Vec<u32>, _| s.push(4));
        assert_eq!((eng.seq, eng.queue.len()), (5, 5));
        assert_eq!(eng.pending(), 5);

        eng.run_until(&mut log, t);
        assert_eq!(log, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(eng.seq < 8, "renumbered inside dispatch: {}", eng.seq);
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_fired(), 7);
    }
}

//! A fixed reference workload that gauges how fast the machine is running
//! right now, so wall times taken on a shared host can be scaled to a
//! reference speed.
//!
//! The reference is a small discrete-event loop built like the simulator's
//! hot path: a binary heap of pending events keyed by a femtosecond `u128`
//! time, each event a boxed closure that reads and updates words of a
//! small state array and does a little floating-point work, then
//! schedules its successor. Its code and inputs never change, so its speed
//! moves only with the host's: the benchmark interleaves short slices of
//! it with the program and divides the program's wall time by the slices'
//! slowdown.
//!
//! The state array is kept cache-resident on purpose. On a 2-vCPU VM of a
//! busy host, per-round wall times of `sim-mesh` followed this version
//! most closely (correlation 0.76 against 0.55 for a 1 MiB array and 0.51
//! for a 32 MiB one). The simulator is still hit somewhat harder than
//! the reference; [`SENSITIVITY`] makes up for that.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Nanoseconds per reference step at the reference speed: roughly what a
/// quiet 2-vCPU Xeon VM measures (it read 155–180 on the same VM in a
/// slow spell). A scaled wall time is what the same work would take on a
/// machine running the reference at this pace.
pub const NOMINAL_NS_PER_STEP: f64 = 100.0;

/// How much harder the host's drift hits the simulator than the
/// reference: the simulator slows by the reference's slowdown to this
/// power. Regressing per-run log wall times on per-run log slowdowns over
/// 50 runs in twelve processes gave 1.36 (`sim-lan128`) and 1.23
/// (`sim-mesh`) with observability off, 1.09 and 1.06 with it on, each
/// with a correlation of 0.95 or more; 1.2 keeps every mismatch within
/// about 0.16.
pub const SENSITIVITY: f64 = 1.2;

/// Steps per slice: about a millisecond at the reference speed.
pub const SLICE_STEPS: usize = 8 * 1024;

type Event = Box<dyn FnOnce(&mut [u64]) -> u64>;

const DEPTH: usize = 2048;
const WORDS: usize = 2 * 1024;

/// The reference workload's state; build once and run slices of it.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u128, u32)>>,
    slab: Vec<Option<Event>>,
    words: Vec<u64>,
    now: u128,
    rng: u64,
    sink: u64,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn event(x: u64, scale: f64) -> Event {
    Box::new(move |words: &mut [u64]| {
        let i = (x as usize) % words.len();
        let j = (words[i] as usize) % words.len();
        let w = words[j].rotate_left(7) ^ x;
        words[j] = w;
        let drift = (w >> 11) as f64 * scale;
        let corr = (drift * 1.000_001).sqrt() / (1.0 + drift);
        w ^ corr.to_bits()
    })
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The reference at its fixed starting state.
    pub fn new() -> Self {
        let mut rng = 0x5EED_CA1B_u64;
        let words = (0..WORDS).map(|_| splitmix(&mut rng)).collect();
        let mut r = Reference {
            heap: BinaryHeap::with_capacity(DEPTH + 1),
            slab: Vec::with_capacity(DEPTH),
            words,
            now: 0,
            rng,
            sink: 0,
        };
        for id in 0..DEPTH as u32 {
            let x = splitmix(&mut r.rng);
            r.slab.push(Some(event(x, 1e-12)));
            r.heap.push(Reverse((u128::from(x >> 20), id)));
        }
        r
    }

    /// Run `steps` events; returns the wall time in ns per step.
    pub fn slice(&mut self, steps: usize) -> f64 {
        let t0 = Instant::now();
        for _ in 0..steps {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never drains");
            self.now = t;
            let f = self.slab[id as usize].take().expect("one event per id");
            let out = f(&mut self.words);
            self.sink ^= out;
            let x = splitmix(&mut self.rng) ^ out;
            self.slab[id as usize] = Some(event(x, 1e-12));
            let gap = u128::from((x >> 24) | 1) * 1_000;
            self.heap.push(Reverse((self.now + gap, id)));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(self.sink);
        ns / steps as f64
    }

    /// How much the host slows the simulator right now: one slice's ns
    /// per step over [`NOMINAL_NS_PER_STEP`], to the power
    /// [`SENSITIVITY`].
    pub fn slowdown(&mut self) -> f64 {
        (self.slice(SLICE_STEPS) / NOMINAL_NS_PER_STEP).powf(SENSITIVITY)
    }
}

/// Wall-time pacing of one run: the host's slowdown gauged before the
/// first block and after each block of work.
#[derive(Debug, Default, Clone)]
pub struct Pace {
    /// Slowdown after each block (index 0: before the first block).
    pub slowdown: Vec<f64>,
    /// For each block, one past its last call.
    pub block_end: Vec<usize>,
}

impl Pace {
    /// Slowdown during block `b`: the mean of the gauges on either side.
    pub fn block(&self, b: usize) -> f64 {
        (self.slowdown[b] + self.slowdown[b + 1]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_runs_the_same_work_every_time() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.slice(10_000);
        b.slice(10_000);
        assert_eq!(a.sink, b.sink);
        assert_eq!(a.now, b.now);
        assert_eq!(a.heap.len(), DEPTH);
    }
}

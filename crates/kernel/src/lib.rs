#![warn(missing_docs)]

//! A pSOS⁺ᵐ-shaped real-time executive model.
//!
//! Section 4 of the paper embeds the NTI software in the industrial
//! multiprocessing kernel pSOS⁺ᵐ on a Motorola MVME-162 (M68040 + 82596CA).
//! For the reproduction, what matters about the kernel is its *timing
//! behaviour* — it is exactly the software path latencies that hardware
//! timestamping removes:
//!
//! * **ISR entry latency** (step 6 → 7 of Section 3.1): interrupt assertion
//!   to first handler instruction, "seriously impaired by code segments
//!   with interrupts disabled" — modelled as base + uniform spread + a
//!   heavy tail for long masked sections;
//! * **task dispatch latency**: message arrival to task execution
//!   (scheduling, context switch, higher-priority interference);
//! * **CSP assembly time** (step 1): building a packet before handing it to
//!   the COMCO.
//!
//! The [`ComcoDriver`] multiplexes the three message-passing clients of
//! Figure 9 over the single coprocessor: **KI** (pSOS⁺ᵐ kernel interface,
//! remote objects via RPC), **NI** (pNA⁺ TCP/IP sockets) and **CI** (the
//! clock synchronization interface). Demultiplexing is by ethertype, so
//! synchronization stays invisible to application tasks.
//!
//! Two hardware deployments from the paper are expressible as configs:
//! the shared-CPU MVME-162 (sync competes with the application) and the
//! AcQ i6040 with a dedicated M68EN360 communications CPU executing the
//! synchronization software without disturbing the M68040.

pub mod exec;

pub use exec::{Executive, Msg, Step, TaskBody, TaskId, TraceEvent};

use nti_simcore::rng::SimRng;
use nti_simcore::time::SimDuration;
use std::collections::VecDeque;

/// A latency distribution: `base + U[0, spread)`, plus — with probability
/// `tail_prob` — an additional `U[0, tail)` term modelling long
/// interrupt-masked sections / priority inversion.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Deterministic floor.
    pub base: SimDuration,
    /// Uniform spread width.
    pub spread: SimDuration,
    /// Probability of hitting the heavy tail.
    pub tail_prob: f64,
    /// Heavy-tail width.
    pub tail: SimDuration,
}

impl Latency {
    /// A deterministic latency.
    pub fn fixed(d: SimDuration) -> Latency {
        Latency {
            base: d,
            spread: SimDuration::ZERO,
            tail_prob: 0.0,
            tail: SimDuration::ZERO,
        }
    }

    /// Draw one delay.
    pub fn draw(&self, rng: &mut SimRng) -> SimDuration {
        let mut d = self.base;
        if self.spread > SimDuration::ZERO {
            d += SimDuration::from_fs(rng.below(self.spread.as_fs() as u64) as u128);
        }
        if self.tail_prob > 0.0 && rng.chance(self.tail_prob) && self.tail > SimDuration::ZERO {
            d += SimDuration::from_fs(rng.below(self.tail.as_fs() as u64) as u128);
        }
        d
    }

    /// Worst-case value.
    pub fn max(&self) -> SimDuration {
        self.base + self.spread + self.tail
    }
}

/// Kernel timing configuration.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// IRQ assertion → ISR first instruction.
    pub isr_entry: Latency,
    /// ISR body execution (timestamp rescue, queue post).
    pub isr_body: Latency,
    /// Message queued → receiving task runs.
    pub task_dispatch: Latency,
    /// CSP assembly in software (step 1).
    pub csp_assembly: Latency,
}

impl KernelConfig {
    /// pSOS⁺ᵐ on a shared MVME-162 CPU under moderate application load:
    /// tens-of-µs ISR entry with a heavy tail to ~1 ms (interrupt-masked
    /// kernel sections), ~100 µs task dispatch.
    pub fn psos_mvme162() -> Self {
        KernelConfig {
            isr_entry: Latency {
                base: SimDuration::from_micros(8),
                spread: SimDuration::from_micros(40),
                tail_prob: 0.05,
                tail: SimDuration::from_micros(1000),
            },
            isr_body: Latency {
                base: SimDuration::from_micros(5),
                spread: SimDuration::from_micros(10),
                tail_prob: 0.0,
                tail: SimDuration::ZERO,
            },
            task_dispatch: Latency {
                base: SimDuration::from_micros(30),
                spread: SimDuration::from_micros(150),
                tail_prob: 0.02,
                tail: SimDuration::from_micros(3000),
            },
            csp_assembly: Latency {
                base: SimDuration::from_micros(20),
                spread: SimDuration::from_micros(60),
                tail_prob: 0.02,
                tail: SimDuration::from_micros(1500),
            },
        }
    }

    /// The i6040 deployment: the sync software runs alone on the M68EN360
    /// communications CPU — small, tight latencies, no heavy tails.
    pub fn dedicated_i6040() -> Self {
        KernelConfig {
            isr_entry: Latency {
                base: SimDuration::from_micros(3),
                spread: SimDuration::from_micros(6),
                tail_prob: 0.0,
                tail: SimDuration::ZERO,
            },
            isr_body: Latency {
                base: SimDuration::from_micros(3),
                spread: SimDuration::from_micros(4),
                tail_prob: 0.0,
                tail: SimDuration::ZERO,
            },
            task_dispatch: Latency {
                base: SimDuration::from_micros(10),
                spread: SimDuration::from_micros(20),
                tail_prob: 0.0,
                tail: SimDuration::ZERO,
            },
            csp_assembly: Latency {
                base: SimDuration::from_micros(10),
                spread: SimDuration::from_micros(15),
                tail_prob: 0.0,
                tail: SimDuration::ZERO,
            },
        }
    }

    /// Zero-latency kernel for unit tests and lower-bound experiments.
    pub fn ideal() -> Self {
        let z = Latency::fixed(SimDuration::ZERO);
        KernelConfig {
            isr_entry: z,
            isr_body: z,
            task_dispatch: z,
            csp_assembly: z,
        }
    }
}

/// The executive: draws latencies from its configured distributions. It
/// records none of them: every node's kernel draws from the one
/// [`KernelConfig`] of its cluster, so the cluster records them into one
/// `kernel/<name>_ns` histogram per latency.
#[derive(Clone, Debug)]
pub struct Kernel {
    cfg: KernelConfig,
    rng: SimRng,
}

impl Kernel {
    /// Create an executive.
    pub fn new(cfg: KernelConfig, rng: SimRng) -> Self {
        Kernel { cfg, rng }
    }

    /// The configuration.
    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// Draw an ISR entry latency (step 6 → 7).
    pub fn isr_entry(&mut self) -> SimDuration {
        self.cfg.isr_entry.draw(&mut self.rng)
    }

    /// Draw an ISR body duration.
    pub fn isr_body(&mut self) -> SimDuration {
        self.cfg.isr_body.draw(&mut self.rng)
    }

    /// Draw a task dispatch latency.
    pub fn task_dispatch(&mut self) -> SimDuration {
        self.cfg.task_dispatch.draw(&mut self.rng)
    }

    /// Draw a CSP assembly duration (step 1).
    pub fn csp_assembly(&mut self) -> SimDuration {
        self.cfg.csp_assembly.draw(&mut self.rng)
    }
}

/// The three message-passing clients multiplexed over one COMCO (Figure 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Kernel Interface: pSOS⁺ᵐ remote objects (RPC).
    Ki,
    /// Network Interface: pNA⁺ TCP/IP.
    Ni,
    /// Clock Interface: the synchronization algorithm's CSPs.
    Ci,
}

/// Ethertype carrying pSOS⁺ᵐ kernel RPCs in the model.
pub const ETHERTYPE_KI: u16 = 0x8842;
/// Ethertype carrying pNA⁺/IP traffic in the model.
pub const ETHERTYPE_NI: u16 = 0x0800;
/// Ethertype carrying CSPs (must match `nti_netsim::ETHERTYPE_CSP`).
pub const ETHERTYPE_CI: u16 = 0x88F7;

/// A queued message on one of the interfaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Which interface it belongs to.
    pub interface: Interface,
    /// Originating node id.
    pub from: usize,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// The COMCO driver: demultiplexes received frames onto KI/NI/CI queues and
/// counts traffic per interface.
#[derive(Clone, Debug, Default)]
pub struct ComcoDriver {
    ki: VecDeque<Message>,
    ni: VecDeque<Message>,
    ci: VecDeque<Message>,
    rx_counts: [u64; 3],
    tx_counts: [u64; 3],
    dropped: u64,
}

impl ComcoDriver {
    /// An empty driver.
    pub fn new() -> Self {
        ComcoDriver::default()
    }

    /// Classify an ethertype onto an interface, if any.
    pub fn classify(ethertype: u16) -> Option<Interface> {
        match ethertype {
            ETHERTYPE_KI => Some(Interface::Ki),
            ETHERTYPE_NI => Some(Interface::Ni),
            ETHERTYPE_CI => Some(Interface::Ci),
            _ => None,
        }
    }

    /// Deliver a received frame to its interface queue; unknown ethertypes
    /// are dropped (and counted).
    pub fn deliver(&mut self, ethertype: u16, from: usize, payload: Vec<u8>) -> Option<Interface> {
        match Self::classify(ethertype) {
            Some(i) => {
                self.queue_mut(i).push_back(Message {
                    interface: i,
                    from,
                    payload,
                });
                self.rx_counts[Self::idx(i)] += 1;
                Some(i)
            }
            None => {
                self.dropped += 1;
                None
            }
        }
    }

    /// Record an outgoing frame on behalf of an interface.
    pub fn record_tx(&mut self, i: Interface) {
        self.tx_counts[Self::idx(i)] += 1;
    }

    /// Pop the next message of an interface.
    pub fn pop(&mut self, i: Interface) -> Option<Message> {
        self.queue_mut(i).pop_front()
    }

    /// Queue depth of an interface.
    pub fn depth(&self, i: Interface) -> usize {
        match i {
            Interface::Ki => self.ki.len(),
            Interface::Ni => self.ni.len(),
            Interface::Ci => self.ci.len(),
        }
    }

    /// `(rx, tx)` counters for an interface.
    pub fn counts(&self, i: Interface) -> (u64, u64) {
        (self.rx_counts[Self::idx(i)], self.tx_counts[Self::idx(i)])
    }

    /// Frames dropped for unknown ethertypes.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn queue_mut(&mut self, i: Interface) -> &mut VecDeque<Message> {
        match i {
            Interface::Ki => &mut self.ki,
            Interface::Ni => &mut self.ni,
            Interface::Ci => &mut self.ci,
        }
    }

    fn idx(i: Interface) -> usize {
        match i {
            Interface::Ki => 0,
            Interface::Ni => 1,
            Interface::Ci => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_draw_within_bounds() {
        let l = Latency {
            base: SimDuration::from_micros(10),
            spread: SimDuration::from_micros(20),
            tail_prob: 0.5,
            tail: SimDuration::from_micros(100),
        };
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let d = l.draw(&mut rng);
            assert!(d >= l.base && d <= l.max());
        }
    }

    #[test]
    fn heavy_tail_occasionally_fires() {
        let l = Latency {
            base: SimDuration::ZERO,
            spread: SimDuration::from_micros(1),
            tail_prob: 0.05,
            tail: SimDuration::from_micros(1000),
        };
        let mut rng = SimRng::new(2);
        let n_tail = (0..10_000)
            .filter(|_| l.draw(&mut rng) > SimDuration::from_micros(10))
            .count();
        assert!((300..700).contains(&n_tail), "tail hits = {n_tail}");
    }

    #[test]
    fn dedicated_cpu_is_tighter_than_shared() {
        let shared = KernelConfig::psos_mvme162();
        let dedicated = KernelConfig::dedicated_i6040();
        assert!(dedicated.isr_entry.max() < shared.isr_entry.max());
        assert!(dedicated.task_dispatch.max() < shared.task_dispatch.max());
        assert_eq!(dedicated.isr_entry.tail_prob, 0.0, "no app interference");
    }

    #[test]
    fn ideal_kernel_has_zero_latency() {
        let mut k = Kernel::new(KernelConfig::ideal(), SimRng::new(3));
        assert_eq!(k.isr_entry(), SimDuration::ZERO);
        assert_eq!(k.csp_assembly(), SimDuration::ZERO);
    }

    #[test]
    fn driver_demultiplexes_by_ethertype() {
        let mut d = ComcoDriver::new();
        assert_eq!(d.deliver(ETHERTYPE_CI, 1, vec![1]), Some(Interface::Ci));
        assert_eq!(d.deliver(ETHERTYPE_KI, 2, vec![2]), Some(Interface::Ki));
        assert_eq!(d.deliver(ETHERTYPE_NI, 3, vec![3]), Some(Interface::Ni));
        assert_eq!(d.deliver(0x1234, 4, vec![4]), None, "unknown dropped");
        assert_eq!(d.depth(Interface::Ci), 1);
        assert_eq!(d.dropped(), 1);
        let m = d.pop(Interface::Ci).unwrap();
        assert_eq!(m.from, 1);
        assert_eq!(d.depth(Interface::Ci), 0);
    }

    #[test]
    fn interfaces_are_isolated() {
        let mut d = ComcoDriver::new();
        d.deliver(ETHERTYPE_CI, 1, vec![]);
        d.deliver(ETHERTYPE_CI, 2, vec![]);
        d.deliver(ETHERTYPE_NI, 3, vec![]);
        assert_eq!(d.depth(Interface::Ci), 2);
        assert_eq!(d.depth(Interface::Ni), 1);
        assert_eq!(d.depth(Interface::Ki), 0);
        assert!(d.pop(Interface::Ki).is_none());
        // CSP traffic is invisible to NI/KI clients: popping CI doesn't
        // disturb the others.
        let _ = d.pop(Interface::Ci);
        assert_eq!(d.depth(Interface::Ni), 1);
    }

    #[test]
    fn counters_track_traffic() {
        let mut d = ComcoDriver::new();
        d.deliver(ETHERTYPE_CI, 1, vec![]);
        d.record_tx(Interface::Ci);
        d.record_tx(Interface::Ci);
        assert_eq!(d.counts(Interface::Ci), (1, 2));
        assert_eq!(d.counts(Interface::Ni), (0, 0));
    }

    #[test]
    fn fifo_order_within_interface() {
        let mut d = ComcoDriver::new();
        for i in 0..5 {
            d.deliver(ETHERTYPE_CI, i, vec![i as u8]);
        }
        for i in 0..5 {
            assert_eq!(d.pop(Interface::Ci).unwrap().from, i);
        }
    }

    #[test]
    fn ci_ethertype_matches_netsim() {
        // Compile-time-ish guard: the constant must match the netsim CSP
        // ethertype (the crates are decoupled, so assert the value).
        assert_eq!(ETHERTYPE_CI, 0x88F7);
    }
}

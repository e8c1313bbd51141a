//! VME carrier boards hosting MA-Modules.
//!
//! The prototype runs on "a passive VME carrier-board hosting the NTI
//! MA-Module" (Section 4), and the envisaged i6040 CPU "has 2 MA-Slots on
//! board"; the 16-node system is "four MVME-162 with four NTIs each". The
//! carrier's job is address windowing — each slot's module appears in a
//! fixed window of the VME A24 space — plus the single-line interrupt
//! daisy chain with per-slot vectored acknowledge.
//!
//! The model gives each slot a 1 MB window (the MA memory space is up to
//! 16 MB; the NTI uses the bottom 512 KB + register window) and walks the
//! interrupt daisy chain in slot order on IACK, exactly the behaviour a
//! driver must cope with when several NTIs share one carrier.

use crate::Nti;

/// Size of one slot's address window (1 MB of A24 space).
pub const SLOT_WINDOW: u32 = 0x10_0000;

/// A passive carrier board with up to `N` MA slots.
pub struct Carrier {
    slots: Vec<Option<Nti>>,
}

impl Carrier {
    /// A carrier with the given number of (empty) slots.
    pub fn new(slots: usize) -> Self {
        Carrier {
            slots: (0..slots).map(|_| None).collect(),
        }
    }

    /// Plug a module into a slot. Panics if occupied.
    pub fn plug(&mut self, slot: usize, module: Nti) {
        assert!(self.slots[slot].is_none(), "slot {slot} occupied");
        self.slots[slot] = Some(module);
    }

    /// Remove the module from a slot.
    pub fn unplug(&mut self, slot: usize) -> Option<Nti> {
        self.slots[slot].take()
    }

    /// Access a slot's module.
    pub fn module(&mut self, slot: usize) -> Option<&mut Nti> {
        self.slots[slot].as_mut()
    }

    /// The base VME address of a slot's window.
    pub fn slot_base(&self, slot: usize) -> u32 {
        assert!(slot < self.slots.len());
        slot as u32 * SLOT_WINDOW
    }

    /// Decode a VME address to `(slot, module offset)`. Returns `None` for
    /// empty slots or addresses beyond the populated windows.
    pub fn decode(&self, addr: u32) -> Option<(usize, u32)> {
        let slot = (addr / SLOT_WINDOW) as usize;
        if slot >= self.slots.len() || self.slots[slot].is_none() {
            return None;
        }
        Some((slot, addr % SLOT_WINDOW))
    }

    /// 32-bit VME read through the carrier (bus error -> panic, like a
    /// VME BERR on an empty slot).
    pub fn vme_read32(&mut self, addr: u32) -> u32 {
        let (slot, off) = self.decode(addr).expect("VME bus error: empty slot");
        self.slots[slot].as_mut().expect("decoded").read32(off)
    }

    /// 32-bit VME write through the carrier.
    pub fn vme_write32(&mut self, addr: u32, v: u32) {
        let (slot, off) = self.decode(addr).expect("VME bus error: empty slot");
        self.slots[slot].as_mut().expect("decoded").write32(off, v);
    }

    /// Whether any module asserts the (shared) interrupt line.
    pub fn irq_asserted(&self) -> bool {
        self.slots.iter().flatten().any(|m| m.irq_asserted())
    }

    /// Interrupt acknowledge: walk the daisy chain in slot order; the first
    /// asserting module answers with its vector.
    pub fn iack(&mut self) -> Option<(usize, u8)> {
        for (i, m) in self.slots.iter_mut().enumerate() {
            if let Some(m) = m {
                if let Some(vec) = m.irq_ack() {
                    return Some((i, vec));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpldConfig, IO_INT_ENABLE, IO_VECTOR, UTCSU_BASE};
    use nti_utcsu::regs as uregs;
    use nti_utcsu::UtcsuConfig;

    fn module(vector: u16) -> Nti {
        let mut n = Nti::new(UtcsuConfig::default(), CpldConfig::default());
        n.write32(
            UTCSU_BASE + uregs::R_CTRL,
            uregs::CTRL_SYNCRUN | uregs::CTRL_RUN,
        );
        n.write32(UTCSU_BASE + uregs::R_INT_MASK, u32::MAX);
        n.io_write16(IO_VECTOR, vector);
        n.io_write16(IO_INT_ENABLE, 1);
        n
    }

    /// The MVME-162 deployment: one carrier, four NTIs.
    fn mvme162() -> Carrier {
        let mut c = Carrier::new(4);
        for i in 0..4 {
            c.plug(i, module(0x40 + (i as u16) * 8));
        }
        c
    }

    #[test]
    fn windows_are_disjoint_per_slot() {
        let mut c = mvme162();
        // Write through slot 2's window; only slot 2's memory changes.
        let a2 = c.slot_base(2) + crate::CPU_BASE + 0x100;
        c.vme_write32(a2, 0xFEED_F00D);
        assert_eq!(c.vme_read32(a2), 0xFEED_F00D);
        let a1 = c.slot_base(1) + crate::CPU_BASE + 0x100;
        assert_eq!(c.vme_read32(a1), 0);
    }

    #[test]
    fn each_slot_has_its_own_clock() {
        let mut c = mvme162();
        c.module(0).unwrap().utcsu_mut().advance_to_tick(10_000_000);
        c.module(3).unwrap().utcsu_mut().advance_to_tick(20_000_000);
        let t0 = c.vme_read32(c.slot_base(0) + UTCSU_BASE + uregs::R_TIMESTAMP);
        let t3 = c.vme_read32(c.slot_base(3) + UTCSU_BASE + uregs::R_TIMESTAMP);
        assert!(t3 > t0);
    }

    #[test]
    fn iack_daisy_chain_prefers_lowest_slot() {
        let mut c = mvme162();
        // Raise network interrupts on slots 1 and 3.
        for s in [1usize, 3] {
            let hdr = c.module(s).unwrap().rx_header_addr(0);
            let base = c.slot_base(s);
            c.vme_write32(base + hdr + 0x1C, 0);
        }
        assert!(c.irq_asserted());
        let (slot, vec) = c.iack().expect("pending");
        assert_eq!(slot, 1, "daisy chain order");
        assert_eq!(vec & 0xF8, 0x48);
        let (slot2, _) = c.iack().expect("second module still pending");
        assert_eq!(slot2, 3);
        // Both modules' NTI interrupt logic now disabled until re-enabled.
        assert!(!c.irq_asserted());
    }

    #[test]
    fn decode_rejects_empty_slot() {
        let mut c = Carrier::new(2);
        c.plug(0, module(0x40));
        assert!(c.decode(SLOT_WINDOW + 4).is_none(), "slot 1 empty");
        assert!(c.decode(2 * SLOT_WINDOW).is_none(), "beyond slots");
        assert!(c.decode(0x100).is_some());
    }

    #[test]
    #[should_panic(expected = "VME bus error")]
    fn read_from_empty_slot_is_bus_error() {
        let mut c = Carrier::new(2);
        c.plug(0, module(0x40));
        let _ = c.vme_read32(SLOT_WINDOW + 0x100);
    }

    #[test]
    fn unplug_frees_slot() {
        let mut c = Carrier::new(1);
        c.plug(0, module(0x40));
        let m = c.unplug(0);
        assert!(m.is_some());
        c.plug(0, module(0x50));
    }
}

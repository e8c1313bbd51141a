#![warn(missing_docs)]

//! The **NTI** — Network Time Interface MA-Module.
//!
//! The NTI (Section 3.2, Figure 4) is a single-height MA-Module carrying the
//! UTCSU ASIC, 256 KB of dual-ported SRAM, a CPLD with all decode/glue
//! logic, a TCXO/OCXO and a serial PROM. Its job is to sit between the
//! node's CPU and the communications coprocessor (COMCO) so that clock
//! synchronization packets are timestamped *by hardware* while the COMCO
//! DMAs them through the shared memory.
//!
//! # Memory map (Figure 6)
//!
//! The CPLD maps **two address regions onto the same physical memory** to
//! distinguish plain CPU accesses from COMCO accesses:
//!
//! ```text
//! 0x00000 .. 0x3FFFF   COMCO view (A19=0), special decode:
//!     0x00000 .. 0x2DFFF   System Structures (184 KB)
//!     0x2E000 .. 0x3CFFF   Data Buffers      (60 KB)
//!     0x3D000 .. 0x3EFFF   Receive Headers   (8 KB = 128 × 64 B)
//!     0x3F000 .. 0x3FFFF   Transmit Headers  (4 KB =  64 × 64 B)
//! 0x40000 .. 0x7FFFF   CPU view (A19=1), plain accesses
//! 0x80000 .. 0x801FF   UTCSU register window (512 B)
//! ```
//!
//! # Special decode (Figures 3 and 7)
//!
//! * a COMCO **write** to offset `0x1C` inside a receive header generates
//!   the RECEIVE trigger (sampling a receive time/accuracy stamp in the
//!   UTCSU) and latches the header's base address into the NTI's *Receive
//!   Header Base* register, so the ISR can attribute the stamp to the right
//!   packet even for back-to-back CSPs (footnote 4);
//! * a COMCO **read** of offset `0x14` inside a transmit header generates
//!   the TRANSMIT trigger; the UTCSU registers holding the sampled stamp
//!   are **transparently mapped** to offsets `0x18` (timestamp) and `0x20`
//!   (accuracies) of the transmit header, so the stamp rides out inside the
//!   packet without CPU involvement. (`0x1C` is ordinary memory: the sender
//!   places the — slowly changing — macrostamp there at assembly time.)
//!
//! Trigger and mapping offsets are CPLD parameters ([`CpldConfig`]): the
//! paper stresses that the two addresses are *independently configurable*
//! to adapt to COMCO FIFO peculiarities.
//!
//! # I/O space (Figure 8)
//!
//! ```text
//! 0x00  Receive Header Base (RO, latched on RECEIVE)
//! 0x02  Vector (Base) register (RW)
//! 0x04  Dis/Enable Interrupt Logic (write re-enables after an IRQ)
//! 0xFE  serial PROM access byte
//! ```

pub mod carrier;
pub mod driver;
pub mod sprom;

pub use carrier::Carrier;
pub use driver::{comco_service, ScbDriver, TxOrder};
pub use sprom::SProm;

use nti_utcsu::{Utcsu, UtcsuConfig};

/// Size of the NTI's shared SRAM (2 × 64K×16).
pub const MEM_SIZE: usize = 256 * 1024;
/// Longwords per page of the simulated SRAM (4 KB pages).
const PAGE_WORDS: usize = 1024;
/// Bytes per page of the simulated SRAM.
const PAGE_BYTES: u32 = 4 * PAGE_WORDS as u32;
/// Pages in the simulated SRAM.
const PAGES: usize = MEM_SIZE / (4 * PAGE_WORDS);
/// Base of the COMCO-view region.
pub const COMCO_BASE: u32 = 0x00000;
/// Base of the System Structures section.
pub const SYS_STRUCT_BASE: u32 = 0x00000;
/// Base of the Data Buffers section.
pub const DATA_BUF_BASE: u32 = 0x2E000;
/// Base of the Receive Headers section.
pub const RX_HDR_BASE: u32 = 0x3D000;
/// Size of the Receive Headers section.
pub const RX_HDR_SIZE: u32 = 0x2000;
/// Base of the Transmit Headers section.
pub const TX_HDR_BASE: u32 = 0x3F000;
/// Size of the Transmit Headers section.
pub const TX_HDR_SIZE: u32 = 0x1000;
/// Base of the CPU-view region.
pub const CPU_BASE: u32 = 0x40000;
/// Base of the UTCSU register window.
pub const UTCSU_BASE: u32 = 0x80000;
/// One past the last mapped memory-space address.
pub const MAP_END: u32 = UTCSU_BASE + nti_utcsu::regs::REG_WINDOW;

/// I/O-space offset of the Receive Header Base register.
pub const IO_RX_HDR_BASE: u32 = 0x00;
/// I/O-space offset of the Vector (Base) register.
pub const IO_VECTOR: u32 = 0x02;
/// I/O-space offset of the Dis/Enable Interrupt Logic register.
pub const IO_INT_ENABLE: u32 = 0x04;
/// I/O-space offset of the serial PROM access byte.
pub const IO_SPROM: u32 = 0xFE;

/// CPLD parameters: header geometry, trigger offsets, transparent-mapping
/// offsets, and which UTCSU SSU this network attaches to.
#[derive(Clone, Copy, Debug)]
pub struct CpldConfig {
    /// Size of one receive/transmit header (64 B for the 82596CA).
    pub header_len: u32,
    /// Offset within a receive header whose *write* raises RECEIVE.
    pub rcv_trigger_off: u32,
    /// Offset within a transmit header whose *read* raises TRANSMIT.
    pub xmt_trigger_off: u32,
    /// Offset within a transmit header transparently mapped to the sampled
    /// transmit timestamp.
    pub xmt_map_ts_off: u32,
    /// Offset within a transmit header transparently mapped to the sampled
    /// transmit accuracies.
    pub xmt_map_acc_off: u32,
    /// Index of the UTCSU SSU unit driven by this network's triggers.
    pub ssu_idx: usize,
}

impl Default for CpldConfig {
    /// The 82596CA programming from Figure 7.
    fn default() -> Self {
        CpldConfig {
            header_len: 64,
            rcv_trigger_off: 0x1C,
            xmt_trigger_off: 0x14,
            xmt_map_ts_off: 0x18,
            xmt_map_acc_off: 0x20,
            ssu_idx: 0,
        }
    }
}

/// The NTI MA-Module: UTCSU + shared memory + CPLD + S-PROM.
#[derive(Clone)]
pub struct Nti {
    /// The shared SRAM as 4 KB pages of longwords, allocated on the first
    /// non-zero write: an absent page reads as zeros, so a module costs
    /// nothing for the memory it never stores into.
    mem: [Option<Box<[u32; PAGE_WORDS]>>; PAGES],
    utcsu: Utcsu,
    cpld: CpldConfig,
    rcv_header_base: u32,
    vector_base: u8,
    int_enabled: bool,
    sprom: SProm,
}

impl Nti {
    /// Build an NTI around a UTCSU with the given configurations.
    pub fn new(utcsu_cfg: UtcsuConfig, cpld: CpldConfig) -> Self {
        assert!(
            cpld.header_len.is_power_of_two(),
            "header length must be a power of two"
        );
        Nti {
            mem: [const { None }; PAGES],
            utcsu: Utcsu::new(utcsu_cfg),
            cpld,
            rcv_header_base: 0,
            vector_base: 0x40,
            int_enabled: false,
            sprom: SProm::nti(),
        }
    }

    /// Default NTI (10 MHz TCXO, 82596CA header layout).
    pub fn default_module() -> Self {
        Nti::new(UtcsuConfig::default(), CpldConfig::default())
    }

    /// The UTCSU on board (mutable — the owner advances it before accesses).
    pub fn utcsu_mut(&mut self) -> &mut Utcsu {
        &mut self.utcsu
    }

    /// The UTCSU on board (read-only).
    pub fn utcsu(&self) -> &Utcsu {
        &self.utcsu
    }

    /// The CPLD programming.
    pub fn cpld(&self) -> CpldConfig {
        self.cpld
    }

    // --- memory-space access (CPLD address decode) -----------------------

    /// 32-bit memory-space read at `addr` (any bus master; the region
    /// distinguishes CPU from COMCO accesses, exactly as the CPLD does).
    pub fn read32(&mut self, addr: u32) -> u32 {
        assert!(
            addr.is_multiple_of(4),
            "unaligned longword read at {addr:#x}"
        );
        match addr {
            a if a < CPU_BASE => self.comco_read32(a),
            a if a < CPU_BASE + MEM_SIZE as u32 => self.ram_read32(a - CPU_BASE),
            a if (UTCSU_BASE..MAP_END).contains(&a) => self.utcsu.read32(a - UTCSU_BASE),
            _ => panic!("memory-space read outside NTI map: {addr:#x}"),
        }
    }

    /// 32-bit memory-space write.
    pub fn write32(&mut self, addr: u32, v: u32) {
        assert!(
            addr.is_multiple_of(4),
            "unaligned longword write at {addr:#x}"
        );
        match addr {
            a if a < CPU_BASE => self.comco_write32(a, v),
            a if a < CPU_BASE + MEM_SIZE as u32 => self.ram_write32(a - CPU_BASE, v),
            a if (UTCSU_BASE..MAP_END).contains(&a) => self.utcsu.write32(a - UTCSU_BASE, v),
            _ => panic!("memory-space write outside NTI map: {addr:#x}"),
        }
    }

    /// 16-bit memory-space read (the MA bus also supports word accesses).
    pub fn read16(&mut self, addr: u32) -> u16 {
        let v = self.read32(addr & !3);
        if addr & 2 != 0 {
            (v >> 16) as u16
        } else {
            v as u16
        }
    }

    /// 8-bit memory-space read.
    pub fn read8(&mut self, addr: u32) -> u8 {
        let v = self.read32(addr & !3);
        (v >> (8 * (addr & 3))) as u8
    }

    /// The page and the longword within it of the aligned RAM offset `off`.
    fn ram_index(off: u32) -> (usize, usize) {
        let w = off as usize / 4;
        (w / PAGE_WORDS, w % PAGE_WORDS)
    }

    fn ram_read32(&self, off: u32) -> u32 {
        let (page, w) = Self::ram_index(off);
        self.mem[page].as_ref().map_or(0, |p| p[w])
    }

    fn ram_write32(&mut self, off: u32, v: u32) {
        let (page, w) = Self::ram_index(off);
        Self::store(&mut self.mem[page], w, v);
    }

    /// Store `v` at longword `w` of a page, allocating the page on its
    /// first non-zero longword.
    fn store(page: &mut Option<Box<[u32; PAGE_WORDS]>>, w: usize, v: u32) {
        match page {
            Some(p) => p[w] = v,
            None if v == 0 => {} // an absent page already reads 0
            None => page.insert(Box::new([0; PAGE_WORDS]))[w] = v,
        }
    }

    /// The runs a byte range of `len` bytes from `addr` splits into, as
    /// (start within the range, length, RAM offset): a run with a RAM
    /// offset is plain memory within one page, moved without the decode;
    /// any other run is one longword through [`Nti::read32`] or
    /// [`Nti::write32`]. Plain memory is the CPU view and the COMCO view
    /// below the receive headers; both end on page boundaries, so a page
    /// is plain or not as a whole. An unaligned address takes the decode,
    /// which rejects it.
    fn runs(addr: u32, len: usize) -> impl Iterator<Item = (usize, usize, Option<u32>)> {
        const _: () = assert!(
            RX_HDR_BASE.is_multiple_of(PAGE_BYTES) && (MEM_SIZE as u32).is_multiple_of(PAGE_BYTES)
        );
        let mut at = 0;
        std::iter::from_fn(move || {
            if at >= len {
                return None;
            }
            let a = addr + at as u32;
            let ram = if a < RX_HDR_BASE {
                Some(a - COMCO_BASE)
            } else {
                a.checked_sub(CPU_BASE).filter(|&off| off < MEM_SIZE as u32)
            };
            let run = match ram {
                Some(off) if a.is_multiple_of(4) => {
                    let n = (PAGE_BYTES - off % PAGE_BYTES) as usize;
                    (at, n.min(len - at), Some(off))
                }
                _ => (at, 4.min(len - at), None),
            };
            at += run.1;
            Some(run)
        })
    }

    /// Write `bytes` from `addr` on as little-endian longwords (the last
    /// one zero-padded), with the same effect as one [`Nti::write32`] per
    /// longword: plain memory a page at a time, every other longword
    /// through the decode.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let word = |chunk: &[u8]| {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            u32::from_le_bytes(word)
        };
        for (at, n, ram) in Self::runs(addr, bytes.len()) {
            let run = &bytes[at..at + n];
            match ram {
                Some(off) => {
                    let (page, w0) = Self::ram_index(off);
                    let page = &mut self.mem[page];
                    for (w, chunk) in (w0..).zip(run.chunks(4)) {
                        Self::store(page, w, word(chunk));
                    }
                }
                None => self.write32(addr + at as u32, word(run)),
            }
        }
    }

    /// Fill `buf` from `addr` on with little-endian longwords (the last one
    /// truncated), with the same effect as one [`Nti::read32`] per
    /// longword: plain memory a page at a time, every other longword
    /// through the decode.
    pub fn read_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        for (at, n, ram) in Self::runs(addr, buf.len()) {
            let run = &mut buf[at..at + n];
            match ram {
                Some(off) => {
                    let (page, w0) = Self::ram_index(off);
                    match &self.mem[page] {
                        None => run.fill(0),
                        Some(p) => {
                            for (w, chunk) in (w0..).zip(run.chunks_mut(4)) {
                                chunk.copy_from_slice(&p[w].to_le_bytes()[..chunk.len()]);
                            }
                        }
                    }
                }
                None => {
                    let word = self.read32(addr + at as u32).to_le_bytes();
                    run.copy_from_slice(&word[..n]);
                }
            }
        }
    }

    /// The CPLD's transmit-header rule for a COMCO read at offset `within`
    /// of a transmit header whose network drives SSU `ssu`: the trigger
    /// offset raises TRANSMIT, and the two mapping offsets return the
    /// sampled stamp (timestamp, packed accuracies) instead of memory.
    /// `None` at every other offset, which is plain memory. The module's
    /// own header section applies it with [`CpldConfig::ssu_idx`]; a
    /// gateway applies it to each further network with that network's SSU.
    pub fn xmt_header_read(&mut self, ssu: usize, within: u32) -> Option<u32> {
        if within == self.cpld.xmt_trigger_off {
            self.utcsu.trigger_ssu_transmit(ssu);
        }
        let latch = self.utcsu.ssu[ssu].transmit.peek();
        if within == self.cpld.xmt_map_ts_off {
            Some(latch.map_or(0, |s| s.ts.0))
        } else if within == self.cpld.xmt_map_acc_off {
            Some(latch.map_or(0, |s| s.acc_packed()))
        } else {
            None
        }
    }

    /// COMCO-region read: plain RAM plus TRANSMIT trigger / transparent
    /// mapping inside the transmit-header section.
    fn comco_read32(&mut self, off: u32) -> u32 {
        if (TX_HDR_BASE..TX_HDR_BASE + TX_HDR_SIZE).contains(&off) {
            let within = off & (self.cpld.header_len - 1);
            if let Some(v) = self.xmt_header_read(self.cpld.ssu_idx, within) {
                return v;
            }
        }
        self.ram_read32(off)
    }

    /// COMCO-region write: plain RAM plus RECEIVE trigger + header-base
    /// latch inside the receive-header section.
    fn comco_write32(&mut self, off: u32, v: u32) {
        if (RX_HDR_BASE..RX_HDR_BASE + RX_HDR_SIZE).contains(&off) {
            let within = off & (self.cpld.header_len - 1);
            if within == self.cpld.rcv_trigger_off {
                self.utcsu.trigger_ssu_receive(self.cpld.ssu_idx);
                self.rcv_header_base = off & !(self.cpld.header_len - 1);
            }
        }
        self.ram_write32(off, v);
    }

    // --- I/O-space access -------------------------------------------------

    /// 16-bit I/O-space read (the M-Module I/O space is 256 bytes).
    ///
    /// The Receive Header Base register returns the 64-byte-aligned header
    /// address bits A17..A6 (headers are 64-byte aligned within the 256 KB
    /// COMCO region, so 12 bits suffice; see [`Nti::rcv_header_base`] for
    /// the full address).
    pub fn io_read16(&mut self, off: u32) -> u16 {
        match off {
            IO_RX_HDR_BASE => (self.rcv_header_base >> 6) as u16,
            IO_VECTOR => self.vector_base as u16,
            IO_INT_ENABLE => self.int_enabled as u16,
            IO_SPROM => self.sprom.read() as u16,
            _ => 0,
        }
    }

    /// 16-bit I/O-space write.
    pub fn io_write16(&mut self, off: u32, v: u16) {
        match off {
            IO_VECTOR => self.vector_base = v as u8,
            IO_INT_ENABLE => self.int_enabled = v & 1 != 0,
            IO_SPROM => self.sprom.write(v as u8),
            _ => {}
        }
    }

    /// The latched receive-header base as a full COMCO-region address.
    pub fn rcv_header_base(&self) -> u32 {
        self.rcv_header_base
    }

    // --- interrupt logic ---------------------------------------------------

    /// Whether the single M-Module interrupt line is currently asserted
    /// (any enabled UTCSU line pending AND the NTI interrupt logic enabled).
    pub fn irq_asserted(&self) -> bool {
        self.int_enabled && self.utcsu.int_lines().any()
    }

    /// Interrupt acknowledge cycle: if asserted, returns the vector
    /// (base | line bits) and disables further NTI interrupts until software
    /// re-enables via `IO_INT_ENABLE` — the usual "write immediately prior
    /// to leaving the ISR" pattern from Section 3.4.
    pub fn irq_ack(&mut self) -> Option<u8> {
        if !self.irq_asserted() {
            return None;
        }
        self.int_enabled = false;
        Some((self.vector_base & 0xF8) | self.utcsu.int_lines().bits())
    }

    /// Convenience for drivers: the `i`-th receive header's base address in
    /// the COMCO view.
    pub fn rx_header_addr(&self, i: u32) -> u32 {
        let a = RX_HDR_BASE + i * self.cpld.header_len;
        assert!(
            a < RX_HDR_BASE + RX_HDR_SIZE,
            "receive header index out of range"
        );
        a
    }

    /// Convenience for drivers: the `i`-th transmit header's base address.
    pub fn tx_header_addr(&self, i: u32) -> u32 {
        let a = TX_HDR_BASE + i * self.cpld.header_len;
        assert!(
            a < TX_HDR_BASE + TX_HDR_SIZE,
            "transmit header index out of range"
        );
        a
    }

    /// Number of receive headers.
    pub fn rx_header_count(&self) -> u32 {
        RX_HDR_SIZE / self.cpld.header_len
    }

    /// Number of transmit headers.
    pub fn tx_header_count(&self) -> u32 {
        TX_HDR_SIZE / self.cpld.header_len
    }
}

impl std::fmt::Debug for Nti {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nti")
            .field("cpld", &self.cpld)
            .field("rcv_header_base", &self.rcv_header_base)
            .field("vector_base", &self.vector_base)
            .field("int_enabled", &self.int_enabled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nti_simcore::{Macrostamp, NtpTime, Timestamp};
    use nti_utcsu::regs::{CTRL_RUN, CTRL_SYNCRUN, R_CTRL, R_INT_MASK, R_TIMESTAMP};

    fn module() -> Nti {
        let mut n = Nti::default_module();
        n.write32(UTCSU_BASE + R_CTRL, CTRL_SYNCRUN | CTRL_RUN);
        n.write32(UTCSU_BASE + R_INT_MASK, u32::MAX);
        n
    }

    #[test]
    fn cpu_and_comco_regions_alias_same_memory() {
        let mut n = module();
        n.write32(CPU_BASE + 0x1000, 0xCAFE_BABE);
        assert_eq!(n.read32(0x1000), 0xCAFE_BABE, "COMCO view sees CPU write");
        n.write32(0x2000, 0x1234_5678);
        assert_eq!(
            n.read32(CPU_BASE + 0x2000),
            0x1234_5678,
            "CPU view sees COMCO write"
        );
    }

    #[test]
    fn cpu_view_of_header_regions_has_no_side_effects() {
        let mut n = module();
        // CPU reads/writes the same physical bytes through the A19=1 alias:
        // no triggers fire.
        let rx = n.rx_header_addr(0);
        n.write32(CPU_BASE + rx + 0x1C, 0xDEAD);
        assert!(
            !n.utcsu().ssu[0].receive.valid(),
            "CPU write must not trigger"
        );
        let tx = n.tx_header_addr(0);
        let _ = n.read32(CPU_BASE + tx + 0x14);
        assert!(
            !n.utcsu().ssu[0].transmit.valid(),
            "CPU read must not trigger"
        );
    }

    #[test]
    fn comco_write_to_0x1c_triggers_receive_and_latches_base() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(123_456);
        let hdr = n.rx_header_addr(5);
        n.write32(hdr + 0x1C, 0xFEED);
        assert!(n.utcsu().ssu[0].receive.valid());
        assert_eq!(n.rcv_header_base(), hdr);
        assert_eq!(n.io_read16(IO_RX_HDR_BASE), (hdr >> 6) as u16);
        // The memory write itself still lands.
        assert_eq!(n.read32(CPU_BASE + hdr + 0x1C), 0xFEED);
    }

    #[test]
    fn comco_writes_to_other_offsets_do_not_trigger() {
        let mut n = module();
        let hdr = n.rx_header_addr(1);
        n.write32(hdr + 0x18, 1);
        n.write32(hdr + 0x20, 2);
        assert!(!n.utcsu().ssu[0].receive.valid());
    }

    #[test]
    fn comco_read_of_0x14_triggers_transmit_and_maps_stamp() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(10_000_000); // ~1 s
        let hdr = n.tx_header_addr(3);
        // Simulate the COMCO fetching the header sequentially.
        let _cmd = n.read32(hdr + 0x10);
        assert!(!n.utcsu().ssu[0].transmit.valid());
        let _dest = n.read32(hdr + 0x14); // trigger offset
        assert!(n.utcsu().ssu[0].transmit.valid());
        let ts = n.read32(hdr + 0x18); // transparently mapped timestamp
        let sampled = n.utcsu().ssu[0].transmit.peek().unwrap();
        assert_eq!(ts, sampled.ts.0);
        let acc = n.read32(hdr + 0x20); // transparently mapped accuracies
        assert_eq!(acc, sampled.acc_packed());
        // 0x1C is ordinary memory (the assembled macrostamp would sit here).
        n.write32(CPU_BASE + hdr + 0x1C, 0xAA55);
        assert_eq!(n.read32(hdr + 0x1C), 0xAA55);
    }

    #[test]
    fn transmit_stamp_reflects_trigger_time_not_read_time() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(10_000_000);
        let hdr = n.tx_header_addr(0);
        let _ = n.read32(hdr + 0x14);
        let t_trigger = n.read32(UTCSU_BASE + R_TIMESTAMP);
        // Time passes before the mapped read (FIFO prefetch distance).
        n.utcsu_mut().advance_to_tick(10_500_000);
        let ts = n.read32(hdr + 0x18);
        assert_eq!(ts, t_trigger, "mapped value is the latched stamp");
    }

    #[test]
    fn back_to_back_receive_sets_overrun() {
        let mut n = module();
        n.write32(n.rx_header_addr(0) + 0x1C, 1);
        n.write32(n.rx_header_addr(1) + 0x1C, 2);
        assert!(n.utcsu().ssu[0].receive.overrun());
        // The header base tracks the newest packet.
        assert_eq!(n.rcv_header_base(), n.rx_header_addr(1));
    }

    #[test]
    fn receive_stamp_pair_is_reconstructible() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(42_000_000);
        n.write32(n.rx_header_addr(0) + 0x1C, 0);
        let s = n.utcsu_mut().ssu[0].receive.take().unwrap();
        let t = NtpTime::from_stamp_pair(Timestamp(s.ts.0), Macrostamp(s.ms.0));
        assert!(t.is_some());
    }

    #[test]
    fn interrupt_vector_encodes_lines() {
        let mut n = module();
        n.io_write16(IO_VECTOR, 0x68);
        n.io_write16(IO_INT_ENABLE, 1);
        assert!(!n.irq_asserted());
        n.write32(n.rx_header_addr(0) + 0x1C, 0); // RECEIVE -> INTN
        assert!(n.irq_asserted());
        let vec = n.irq_ack().expect("irq pending");
        assert_eq!(vec, 0x68 | 0b010, "INTN is bit 1");
        // Further interrupts gated until re-enable.
        assert!(!n.irq_asserted());
        n.io_write16(IO_INT_ENABLE, 1);
        assert!(n.irq_asserted(), "pending source still live");
    }

    #[test]
    fn byte_runs_cross_views_and_truncate_the_last_word() {
        let mut n = module();
        let bytes = [1, 2, 3, 4, 5, 6, 7];
        n.write_bytes(CPU_BASE + DATA_BUF_BASE, &bytes);
        let mut back = [0u8; 7];
        n.read_bytes(DATA_BUF_BASE, &mut back);
        assert_eq!(back, bytes, "COMCO view reads what the CPU wrote");
        // The zero-padded tail of the last longword landed in memory too.
        assert_eq!(n.read32(CPU_BASE + DATA_BUF_BASE + 4), 0x0007_0605);
    }

    /// Pages of the simulated SRAM that have been allocated.
    fn pages_allocated(n: &Nti) -> usize {
        n.mem.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn unwritten_ram_reads_zero_through_both_views() {
        let mut n = module();
        for off in [0, 0x1000, DATA_BUF_BASE, RX_HDR_BASE + 0x40, 0x3FFFC] {
            assert_eq!(n.read32(CPU_BASE + off), 0, "CPU view at {off:#x}");
            assert_eq!(n.read32(off), 0, "COMCO view at {off:#x}");
        }
        assert_eq!(pages_allocated(&n), 0, "reads allocate nothing");
    }

    #[test]
    fn zero_writes_allocate_no_page() {
        let mut n = module();
        n.write32(CPU_BASE + 0x2000, 0);
        n.write_bytes(DATA_BUF_BASE, &[0; 64]);
        assert_eq!(pages_allocated(&n), 0);
        n.write32(CPU_BASE + 0x2004, 0xDEAD_BEEF);
        assert_eq!(pages_allocated(&n), 1);
        // A zero over stored data clears it (the page stays).
        n.write32(0x2004, 0);
        assert_eq!(n.read32(CPU_BASE + 0x2004), 0);
        assert_eq!(pages_allocated(&n), 1);
    }

    #[test]
    fn byte_runs_cross_a_page_boundary() {
        let mut n = module();
        // 16 bytes straddling the 4 KB boundary at DATA_BUF_BASE + 0x1000.
        let at = DATA_BUF_BASE + 0x1000 - 8;
        let bytes: Vec<u8> = (1..=16).collect();
        n.write_bytes(CPU_BASE + at, &bytes);
        assert_eq!(pages_allocated(&n), 2);
        let mut back = [0u8; 16];
        n.read_bytes(at, &mut back);
        assert_eq!(back[..], bytes[..], "COMCO view reads the CPU's run");
        n.read_bytes(CPU_BASE + at, &mut back);
        assert_eq!(back[..], bytes[..], "CPU view reads it back");
        assert_eq!(n.read32(at + 8), 0x0C0B_0A09, "first word of the next page");
    }

    /// The per-longword loops the byte runs must equal: one
    /// [`Nti::write32`] or [`Nti::read32`] per longword, in order.
    fn write_words(n: &mut Nti, addr: u32, bytes: &[u8]) {
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            n.write32(addr + i as u32 * 4, u32::from_le_bytes(word));
        }
    }

    fn read_words(n: &mut Nti, addr: u32, buf: &mut [u8]) {
        for (i, chunk) in buf.chunks_mut(4).enumerate() {
            let word = n.read32(addr + i as u32 * 4).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Section and page edges of both views and the UTCSU window, for
    /// byte runs to start near.
    const EDGES: [u32; 12] = [
        SYS_STRUCT_BASE,
        DATA_BUF_BASE,
        DATA_BUF_BASE + 0x1000,
        RX_HDR_BASE,
        RX_HDR_BASE + 0x1000,
        TX_HDR_BASE,
        CPU_BASE,
        CPU_BASE + DATA_BUF_BASE + 0x1000,
        CPU_BASE + RX_HDR_BASE,
        CPU_BASE + TX_HDR_BASE,
        UTCSU_BASE,
        MAP_END,
    ];

    /// A longword-aligned range of `len` bytes near `EDGES[edge]`, inside
    /// the map.
    fn near_edge(edge: usize, words: i64, len: usize) -> u32 {
        let at = EDGES[edge] as i64 + 4 * words;
        (at.clamp(0, (MAP_END as usize - len) as i64) as u32) & !3
    }

    /// Longwords, a third of them zero, as bytes cut to `len`.
    fn bytes_of(words: &[(u32, u8)], len: usize) -> Vec<u8> {
        let mut bytes: Vec<u8> = words
            .iter()
            .flat_map(|&(v, zero)| if zero == 0 { 0 } else { v }.to_le_bytes())
            .collect();
        bytes.truncate(len);
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `write_bytes` and `read_bytes` equal the per-longword loops:
        /// memory contents, allocated pages, trigger and register side
        /// effects, and the bytes read, for runs across both views, page
        /// straddles, the header sections and the UTCSU window, over RAM
        /// that already holds a first run.
        #[test]
        fn byte_runs_equal_the_longword_loop(
            first in (0usize..EDGES.len(), -80i64..80),
            second in (0usize..EDGES.len(), -80i64..80),
            read in (0usize..EDGES.len(), -80i64..80),
            words in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..3), 0..90),
            cut in (0usize..360, 0usize..360, 0usize..360),
        ) {
            let mut fast = module();
            let mut reference = module();
            let bytes = bytes_of(&words, cut.0);
            for (edge, off) in [first, second] {
                let at = near_edge(edge, off, bytes.len());
                fast.write_bytes(at, &bytes);
                write_words(&mut reference, at, &bytes);
            }
            let mut tail = bytes_of(&words, cut.1);
            tail.reverse();
            let at = near_edge(second.0, first.1, tail.len());
            fast.write_bytes(at, &tail);
            write_words(&mut reference, at, &tail);
            let len = cut.2;
            let at = near_edge(read.0, read.1, len);
            let (mut got, mut want) = (vec![0xA5; len], vec![0x5A; len]);
            fast.read_bytes(at, &mut got);
            read_words(&mut reference, at, &mut want);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(fast.mem == reference.mem, "memory or allocated pages differ");
            proptest::prop_assert_eq!(fast.rcv_header_base, reference.rcv_header_base);
            proptest::prop_assert_eq!(format!("{:?}", fast.utcsu), format!("{:?}", reference.utcsu));
        }
    }

    #[test]
    fn sprom_accessible_via_io_space() {
        let mut n = module();
        n.io_write16(IO_SPROM, 0);
        assert_eq!(n.io_read16(IO_SPROM), 0x53);
        assert_eq!(n.io_read16(IO_SPROM), 0x4D);
    }

    #[test]
    fn utcsu_window_is_live() {
        let mut n = module();
        n.utcsu_mut().advance_to_tick(5_000_000);
        let ts = n.read32(UTCSU_BASE + R_TIMESTAMP);
        assert!(ts > 0);
    }

    #[test]
    fn header_geometry() {
        let n = module();
        assert_eq!(n.rx_header_count(), 128);
        assert_eq!(n.tx_header_count(), 64);
        assert_eq!(n.rx_header_addr(0), RX_HDR_BASE);
        assert_eq!(n.tx_header_addr(63), TX_HDR_BASE + 63 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn header_index_bounds_checked() {
        let n = module();
        let _ = n.tx_header_addr(64);
    }

    #[test]
    fn custom_cpld_offsets_respected() {
        let cpld = CpldConfig {
            rcv_trigger_off: 0x08,
            xmt_trigger_off: 0x0C,
            ..CpldConfig::default()
        };
        let mut n = Nti::new(UtcsuConfig::default(), cpld);
        n.write32(UTCSU_BASE + R_CTRL, CTRL_SYNCRUN | CTRL_RUN);
        n.write32(n.rx_header_addr(0) + 0x1C, 0);
        assert!(!n.utcsu().ssu[0].receive.valid(), "old offset inert");
        n.write32(n.rx_header_addr(0) + 0x08, 0);
        assert!(n.utcsu().ssu[0].receive.valid(), "new offset live");
    }

    #[test]
    fn sub_word_memory_access() {
        let mut n = module();
        n.write32(CPU_BASE + 0x100, 0x0403_0201);
        assert_eq!(n.read8(CPU_BASE + 0x100), 0x01);
        assert_eq!(n.read8(CPU_BASE + 0x103), 0x04);
        assert_eq!(n.read16(CPU_BASE + 0x102), 0x0403);
    }

    #[test]
    #[should_panic(expected = "outside NTI map")]
    fn unmapped_address_panics() {
        let mut n = module();
        let _ = n.read32(0x0009_0000);
    }
}

//! The CSP path of Section 3.1, steps 2–7: COMCO hand-off and header reads,
//! wire, per-receiver header writes and trigger, packet interrupt; plus the
//! background traffic sharing the wire.

use super::*;

/// Cause attribution for a dropped CSP reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DropCause {
    /// CRC-discarded frame (trigger fired, frame bad — footnote 4).
    Crc,
    /// Receive-latch overrun or memory-path loss.
    Overrun,
    /// Injected by the fault plan (loss, partition, missed trigger).
    Injected,
}

/// Receive-side data buffer for a given header slot (the upper half of the
/// Data Buffers section; the lower half serves transmission).
fn rx_data_buf(slot: u32) -> u32 {
    nti_module::DATA_BUF_BASE + 0x2000 + (slot % 32) * 256
}

/// Step 2-4: hand the CSP to the COMCO(s) and plan the transmissions.
pub(super) fn csp_send(
    world: &mut World,
    eng: &mut Eng,
    id: usize,
    sw_stamp: NtpTime,
    sw_real: SimTime,
) {
    let now = eng.now();
    if world.nodes[id].is_down() {
        return; // crashed between assembly and the COMCO hand-off
    }
    world.nodes[id].advance(now);
    let (alpha_m, alpha_p) = world.nodes[id].read_alpha_regs(now);
    let ms = world.nodes[id].clock(now).macrostamp().0;
    let round = world.nodes[id].core.round + 1;
    let byzantine = world.injector.is_byzantine(id, now);
    let payload = CspPayload {
        node: id as u32,
        round,
        // A Byzantine node lies about its accuracy (claims near-perfect
        // knowledge while its value is corrupted in exec_tx_read).
        alpha_minus: if byzantine { 1 } else { alpha_m.0 },
        alpha_plus: if byzantine { 1 } else { alpha_p.0 },
        macrostamp: ms,
        hw_timestamp: 0,
        hw_acc: 0,
        sw_timestamp: sw_stamp.timestamp().0,
        hops: 0,
    };
    // Write the payload into the sender's NTI data buffer (CPU view), then
    // read it back through the COMCO view: the bytes that ride the wire
    // are whatever the DMA engine fetches from the shared memory, exactly
    // as in Figure 2's data path.
    let mut payload_bytes = [0u8; CSP_PAYLOAD_LEN];
    {
        let node = &mut world.nodes[id];
        let buf = nti_module::DATA_BUF_BASE + (node.tx_slot % 8) * 256;
        node.nti
            .write_bytes(nti_module::CPU_BASE + buf, &payload.encode());
        node.nti.read_bytes(buf, &mut payload_bytes);
    }
    // Control path: the CPU queues a TRANSMIT command block in the System
    // Structures section and strobes channel attention; the COMCO walks the
    // CBL (through its own view) and picks up the order. The real-time cost
    // of this rendezvous is the cmd_latency the tx_ready() draw charges.
    {
        let node = &mut world.nodes[id];
        let slot_hint = node.tx_slot % node.nti.tx_header_count();
        let cb = node
            .scb
            .queue_transmit(&mut node.nti, slot_hint, CSP_PAYLOAD_LEN as u32);
        let orders = nti_module::comco_service(&mut node.nti);
        debug_assert!(
            orders
                .iter()
                .any(|o| o.cb_addr == cb && o.header_slot == slot_hint),
            "COMCO must pick up the queued transmit order"
        );
        let _ = node.scb.ack_interrupt(&mut node.nti);
    }
    let bits = csp_frame_bits();
    // Root of the CSP's causal chain: the assembly hop, from the software
    // stamp taken at round start to the COMCO hand-off.
    let mut head = Head {
        span: SpanId::NONE,
        end: sw_real,
    };
    if let Some(o) = &mut world.obs {
        o.hop(HOP_CSP_SEND, &mut head, now, id as u32);
    }
    for a in 0..world.topology.attachments(id).len() {
        let lan = world.topology.attachments(id)[a];
        let ready = world.nodes[id].comcos[a].tx_ready(now);
        let grant = world.mediums[lan].grant(ready, bits);
        let header_len = world.cfg.cpld.header_len;
        let plan = world.nodes[id].comcos[a].plan_transmit(grant.wire_start, header_len);
        let receivers = world
            .topology
            .members(lan)
            .iter()
            .filter(|&&m| m != id)
            .count();
        let fid = world.next_flight;
        world.next_flight += 1;
        let corrupted = world.injector.crc_corrupt(id, now);
        world.flights.insert(
            fid,
            Flight {
                src: id,
                lan,
                attachment: a,
                payload,
                payload_bytes,
                wire_end: grant.wire_end,
                sw_stamp_real: sw_real,
                xmit_trigger_real: None,
                corrupted,
                byzantine,
                marked: grant.marked,
                receivers_pending: receivers.max(1),
                late_records: false,
                head,
            },
        );
        world.metrics.csps_sent += 1;
        let slot = world.nodes[id].tx_slot % world.nodes[id].nti.tx_header_count();
        world.nodes[id].tx_slot = world.nodes[id].tx_slot.wrapping_add(1);
        for acc in &plan.header_reads {
            let (at, off) = (acc.at, acc.offset);
            let at = at.max(now);
            eng.schedule_at(at, move |w, e| exec_tx_read(w, e, id, fid, slot, off));
        }
        let we = grant.wire_end;
        eng.schedule_at(we, move |w, e| wire_done(w, e, fid));
    }
}

/// One COMCO header read during transmission (step 4). The read of the
/// trigger offset fires TRANSMIT; the mapped offsets return the stamp,
/// which we capture into the in-flight frame (that is the "transparent
/// insertion into the outgoing packet"). Every other offset is plain
/// memory: its read changes nothing, so it returns on its offset alone
/// (every node's CPLD is `cfg.cpld`), before the node is even looked at.
fn exec_tx_read(world: &mut World, eng: &mut Eng, id: usize, fid: u64, slot: u32, off: u32) {
    let cpld = world.cfg.cpld;
    if off != cpld.xmt_trigger_off && off != cpld.xmt_map_ts_off && off != cpld.xmt_map_acc_off {
        return;
    }
    let now = eng.now();
    if world.nodes[id].is_down() {
        return; // DMA engine lost power mid-transmission
    }
    world.nodes[id].advance(now);
    let Some(flight) = world.flights.get_mut(&fid) else {
        return;
    };
    let a = flight.attachment;
    let value = if a == 0 {
        // Full-fidelity path through the NTI memory map.
        let addr = world.nodes[id].nti.tx_header_addr(slot) + off;
        world.nodes[id].nti.read32(addr)
    } else {
        // Additional attachments (gateways): the same CPLD rule on a
        // different header bank, driving SSU `a`.
        world.nodes[id].nti.xmt_header_read(a, off).unwrap_or(0)
    };
    if off == cpld.xmt_trigger_off {
        flight.xmit_trigger_real = Some(now);
        if let Some(o) = &mut world.obs {
            o.hop(HOP_XMIT_TRIGGER, &mut flight.head, now, id as u32);
        }
    } else if off == cpld.xmt_map_ts_off {
        // A Byzantine node cannot forge the hardware insertion itself, but
        // it can have programmed its UTCSU clock arbitrarily; model the
        // effect as a deterministic per-flight corruption of the stamp
        // (0.125 s .. 0.875 s of lie).
        let v = if flight.byzantine {
            value.wrapping_add((((fid % 7) as u32) + 1) << 21)
        } else {
            value
        };
        flight.payload.hw_timestamp = v;
    } else if off == cpld.xmt_map_acc_off {
        flight.payload.hw_acc = value;
    }
}

/// Last bit left the wire: fan out receptions on the segment.
fn wire_done(world: &mut World, eng: &mut Eng, fid: u64) {
    let now = eng.now();
    let Some(flight) = world.flights.get_mut(&fid) else {
        return;
    };
    let (src, lan, wire_end) = (flight.src, flight.lan, flight.wire_end);
    if world.mediums[lan].is_partitioned() {
        // Severed segment: the frame propagated into the break and reaches
        // no receiver.
        world.flights.remove(&fid);
        return;
    }
    let prop = world.mediums[lan].propagation();
    if world.topology.members(lan).iter().all(|&m| m == src) {
        world.flights.remove(&fid);
        return;
    }
    // Wire hop: from the TRANSMIT trigger to the last bit leaving the
    // wire (receiver-side propagation lands in each rcv_trigger hop),
    // labelled with the LAN rather than a node.
    if let Some(o) = &mut world.obs {
        o.hop(HOP_WIRE, &mut flight.head, wire_end, lan as u32);
    }
    let mut scheduled: usize = 0;
    // Indexed, since scheduling borrows the world; nothing here changes
    // the segment's membership.
    for i in 0..world.topology.members(lan).len() {
        let q = world.topology.members(lan)[i];
        if q == src {
            continue;
        }
        if world.nodes[q].is_down() {
            continue; // powered-off NIC: the frame falls on deaf ears
        }
        if world.injector.drop_reception(src, q, now) {
            count_drop(world, now, q, DropCause::Injected);
            continue;
        }
        let arrival = wire_end + prop + world.injector.extra_arrival_delay(src, q, now);
        schedule_reception(world, eng, fid, q, lan, arrival);
        scheduled += 1;
        if world.injector.duplicate_reception(src, q, now) {
            // A duplicated frame arrives one serialization slot later; the
            // protocol sees the same (sender, round) twice and the inbox
            // take() keeps only the first, but the trigger/latch machinery
            // still exercises the overrun path.
            let dup_at = arrival + world.mediums[lan].serialize(csp_frame_bits());
            schedule_reception(world, eng, fid, q, lan, dup_at);
            scheduled += 1;
        }
    }
    if scheduled == 0 {
        world.flights.remove(&fid);
    } else if let Some(flight) = world.flights.get_mut(&fid) {
        flight.receivers_pending = scheduled;
    }
}

/// Schedule the COMCO reception pipeline (header writes, data copy,
/// interrupt) for one receiver of one flight, starting at `arrival`.
fn schedule_reception(
    world: &mut World,
    eng: &mut Eng,
    fid: u64,
    q: usize,
    lan: usize,
    arrival: SimTime,
) {
    let a_q = world
        .topology
        .attachment_index(q, lan)
        .expect("member attachment");
    let plan = world.nodes[q].comcos[a_q].plan_receive(arrival, world.cfg.cpld.header_len);
    let slot = world.nodes[q].rx_slot % world.nodes[q].nti.rx_header_count();
    world.nodes[q].rx_slot = world.nodes[q].rx_slot.wrapping_add(1);
    for acc in &plan.header_writes {
        let (at, off) = (acc.at, acc.offset);
        eng.schedule_at(at, move |w, e| exec_rx_write(w, e, q, fid, a_q, slot, off));
    }
    // The COMCO also stores the frame data into the receiver's data
    // buffer (a plain region: no triggers) before the interrupt.
    let first_write = plan.header_writes.first().map(|a| a.at).unwrap_or(arrival);
    eng.schedule_at(first_write, move |w, _| {
        if w.nodes[q].is_down() {
            return;
        }
        let Some(flight) = w.flights.get(&fid) else {
            return;
        };
        w.nodes[q]
            .nti
            .write_bytes(rx_data_buf(slot), &flight.payload_bytes);
    });
    let int_at = plan.interrupt_at;
    eng.schedule_at(int_at, move |w, e| rx_complete(w, e, q, fid, a_q, slot));
}

/// One COMCO header write during reception (step 5). The write of the
/// receive-trigger offset fires RECEIVE and latches the header base. Any
/// other offset is a plain word of receive-header RAM, and it returns on
/// its offset alone (every node's CPLD is `cfg.cpld`): the COMCO stores
/// only zeros there, a zero store into that never-written RAM changes
/// nothing, and nothing reads it back.
fn exec_rx_write(
    world: &mut World,
    eng: &mut Eng,
    q: usize,
    fid: u64,
    a: usize,
    slot: u32,
    off: u32,
) {
    if off != world.cfg.cpld.rcv_trigger_off {
        return;
    }
    let now = eng.now();
    if world.nodes[q].is_down() {
        return;
    }
    world.nodes[q].advance(now);
    // The frame's inbound chain, up to the wire, and its TRANSMIT trigger
    // instant. A reception holds its flight until its packet interrupt.
    let Some(&Flight {
        head,
        xmit_trigger_real: xt,
        ..
    }) = world.flights.get(&fid)
    else {
        return;
    };
    // Trigger-path fault injection: a missed DMA trigger means the stamp
    // is never latched (the frame later drops in rx_complete); a late
    // trigger latches a stamp that post-dates the true arrival.
    if world.injector.missed_trigger(q, now) {
        if let Some(o) = &world.obs {
            o.annotate(
                head,
                now,
                SimDuration::ZERO,
                q as u32,
                "fault_trigger_missed",
            );
        }
    } else if let Some(d) = world.injector.late_trigger(q, now) {
        eng.schedule_at(now + d, move |w, e| {
            if w.nodes[q].is_down() {
                return;
            }
            let t = e.now();
            w.nodes[q].advance(t);
            rcv_trigger(w, t, q, fid, a, slot, head, Some(d));
            // The trigger-latency invariant is checked here, not at the
            // reception interrupt: a trigger this late may miss the latch
            // window entirely, in which case the frame drops before
            // `record_eps` would ever observe the pair. A reception that
            // survives is not checked again (`Rx::late`).
            if let Some(xt) = xt {
                check_trigger_latency(w, t, q, t.saturating_since(xt));
            }
        });
    } else {
        rcv_trigger(world, now, q, fid, a, slot, head, None);
    }
}

/// The RECEIVE trigger fires at `t` on receiver `q` of flight `fid`, on
/// time or `late` by an injected delay. The receive hop (propagation plus
/// the header writes before the trigger) ends at `t` and extends `head`,
/// the inbound chain up to the wire. The trigger itself is the header
/// write, or on a gateway's further attachment `a` the SSU's trigger line
/// directly; the UTCSU latch hop, one synchronizer delay long, follows it.
/// The trigger instant and the chain, up to the latch, are recorded for
/// `rx_complete`, unless a late trigger finds its flight already gone:
/// then nothing would ever consume the record.
#[allow(clippy::too_many_arguments)]
fn rcv_trigger(
    world: &mut World,
    t: SimTime,
    q: usize,
    fid: u64,
    a: usize,
    slot: u32,
    mut head: Head,
    late: Option<SimDuration>,
) {
    if let Some(o) = &mut world.obs {
        o.hop(HOP_RCV_TRIGGER, &mut head, t, q as u32);
        if let Some(d) = late {
            // The injected lateness rides the chain as a fault annotation
            // child of the trigger span.
            o.annotate(head, t, d, q as u32, "fault_trigger_late");
        }
    }
    let node = &mut world.nodes[q];
    if a == 0 {
        let addr = node.nti.rx_header_addr(slot) + node.nti.cpld().rcv_trigger_off;
        node.nti.write32(addr, 0);
    } else {
        node.nti.utcsu_mut().trigger_ssu_receive(a);
    }
    if let Some(o) = &mut world.obs {
        o.hop(HOP_LATCH, &mut head, t + o.latch, q as u32);
    }
    if late.is_some() {
        match world.flights.get_mut(&fid) {
            Some(f) => f.late_records = true,
            None => return,
        }
    }
    world.rx.insert(
        (fid, q),
        Rx {
            trigger: t,
            head,
            late: late.is_some(),
        },
    );
}

/// Step 6→7: the packet interrupt; ISR + dispatch; stamps resolved per the
/// timestamping mode; the CSP enters the algorithm. The UTCSU is not
/// advanced for the interrupt itself: the hardware path only takes the
/// latch, and the other modes' register reads advance it themselves.
fn rx_complete(world: &mut World, eng: &mut Eng, q: usize, fid: u64, a: usize, slot: u32) {
    let now = eng.now();
    // Release this reception's claim on the flight, whether or not the
    // receiver is still up to process it; the last one reclaims the
    // sender-side state, and any record a late trigger left behind after
    // its own reception completed.
    let rx = world.rx.remove(&(fid, q));
    let flight = match world.flights.get_mut(&fid) {
        None => None,
        Some(f) => {
            f.receivers_pending -= 1;
            let f = *f;
            if f.receivers_pending == 0 {
                world.flights.remove(&fid);
                if f.late_records {
                    world.rx.retain(|&(g, _), _| g != fid);
                }
            }
            Some(f)
        }
    };
    if world.nodes[q].is_down() {
        return; // a powered-off receiver drops the frame on the floor
    }
    // The protocol software reads the CSP payload out of the receiver's
    // own NTI memory (CPU view) — the bytes the COMCO deposited.
    let mut stored = [0u8; CSP_PAYLOAD_LEN];
    world.nodes[q]
        .nti
        .read_bytes(nti_module::CPU_BASE + rx_data_buf(slot), &mut stored);
    let Some(mut flight) = flight else {
        return;
    };
    // Decode what actually landed in memory; the hardware-inserted fields
    // (transmit stamp + accuracies) came in the *header*, so they are
    // merged from the mapped values the COMCO fetched.
    let mut p = CspPayload::decode(&stored).expect("a full-length buffer decodes");
    p.hw_timestamp = flight.payload.hw_timestamp;
    p.hw_acc = flight.payload.hw_acc;
    debug_assert_eq!(p, flight.payload, "memory path corrupted the payload");
    flight.payload = p;
    if flight.corrupted {
        // Footnote 4: the trigger fired but the frame is discarded; the
        // ISR clears the latch so the stamp is not misattributed.
        world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
        count_drop(world, now, q, DropCause::Crc);
        return;
    }
    let kernel = &mut world.nodes[q].kernel;
    let (entry, body, dispatch) = (
        kernel.isr_entry(),
        kernel.isr_body(),
        kernel.task_dispatch(),
    );
    let at = now + entry + body + dispatch;
    // The kernel's draws, then the packet-interrupt hop (latch end →
    // interrupt assertion) and the ISR + dispatch hop, which the sync
    // task's accept hop follows. A reception with no trigger record has no
    // chain.
    let mut chain = rx.map(|r| r.head);
    if let Some(o) = &mut world.obs {
        o.isr_entry_ns.record(fs_to_ns(entry.as_fs()));
        o.isr_body_ns.record(fs_to_ns(body.as_fs()));
        o.dispatch_ns.record(fs_to_ns(dispatch.as_fs()));
        if let Some(head) = &mut chain {
            o.hop(HOP_INTERRUPT, head, now, q as u32);
            o.hop(HOP_ISR_DISPATCH, head, at, q as u32);
        }
    }
    let mode = world.cfg.mode;
    if mode == TimestampMode::Software {
        // Step 7: the stamp is taken when the protocol task processes
        // the packet.
        world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
        let (payload, sent, marked) = (flight.payload, flight.sw_stamp_real, flight.marked);
        eng.schedule_at(at, move |w, e| {
            let t = e.now();
            let recv_local = w.nodes[q].read_clock_regs(t);
            record_eps(w, t, t.saturating_since(sent));
            let xmit = sw_xmit_stamp(&payload, recv_local);
            process_csp(w, e, q, payload, xmit, recv_local, marked, chain);
        });
        return;
    }
    // The hardware-stamped modes differ only in where the receive stamp
    // and its real instant come from.
    let (recv_local, recv_real) = if mode == TimestampMode::Hardware {
        // The ISR (after its entry latency) reads the latched stamp; the
        // value was sampled at the trigger regardless of ISR timing.
        match world.nodes[q].take_rx_stamp(a) {
            Some(t) => (t, rx.map(|r| r.trigger)),
            None => {
                // No usable latch: either back-to-back triggers overran
                // the stamp latch, or an injected missed trigger never
                // latched one.
                let cause = if rx.is_some() {
                    DropCause::Overrun
                } else {
                    DropCause::Injected
                };
                count_drop(world, now, q, cause);
                return;
            }
        }
    } else {
        // CSU-style: the stamp is taken when the reception interrupt
        // asserts (now), before any ISR latency.
        world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
        (world.nodes[q].read_clock_regs(now), Some(now))
    };
    // A late trigger's own event already checked this pair: in the
    // hardware mode its instant is the receive end.
    let checked = mode == TimestampMode::Hardware && rx.is_some_and(|r| r.late);
    if let (Some(tr), Some(tx)) = (recv_real, flight.xmit_trigger_real) {
        let delay = tr.saturating_since(tx);
        record_eps(world, now, delay);
        if !checked {
            check_trigger_latency(world, now, q, delay);
        }
    }
    let (payload, marked) = (flight.payload, flight.marked);
    eng.schedule_at(at, move |w, e| {
        let xmit = hw_xmit_stamp(&payload);
        process_csp(w, e, q, payload, xmit, recv_local, marked, chain)
    });
}

/// The sender stamp as `(value, α)` for the hardware-stamped modes,
/// reconstructed from the mapped timestamp + the assembly macrostamp.
fn hw_xmit_stamp(payload: &CspPayload) -> (NtpTime, Accuracy, Accuracy) {
    let ts = nti_simcore::Timestamp(payload.hw_timestamp);
    let ms = nti_simcore::Macrostamp(payload.macrostamp);
    // The macrostamp was pre-computed at assembly; if the 256 s epoch
    // rolled between assembly and the trigger the checksum fails and we
    // fall back to epoch-free reconstruction via the timestamp alone
    // anchored at the macrostamp's epoch (sender re-sends next round).
    let t = NtpTime::from_stamp_pair(ts, ms).unwrap_or_else(|| {
        let secs = ((ms.high_secs() as u128) << 8) | ts.secs8() as u128;
        NtpTime::from_raw(
            (secs << FRAC_BITS) | ((ts.frac24() as u128) << (FRAC_BITS - NTP_FRAC_BITS)),
        )
    });
    let acc = payload.hw_acc;
    (
        t,
        Accuracy((acc & 0xFFFF) as u16),
        Accuracy((acc >> 16) as u16),
    )
}

/// The sender stamp for software mode: the 8.24 software timestamp
/// re-anchored near the receiver's clock (valid because offsets are far
/// below the 256 s wrap).
fn sw_xmit_stamp(payload: &CspPayload, recv_local: NtpTime) -> (NtpTime, Accuracy, Accuracy) {
    let ts = nti_simcore::Timestamp(payload.sw_timestamp);
    let d = ts.wrapping_diff(recv_local.timestamp()) as i128;
    let t = recv_local.wrapping_add_units(d << (FRAC_BITS - NTP_FRAC_BITS));
    (
        t,
        Accuracy(payload.alpha_minus),
        Accuracy(payload.alpha_plus),
    )
}

/// A CSP reception was discarded; attribute the loss so fault-matrix runs
/// can tell CRC failures from latch overruns from injected network loss.
fn count_drop(world: &mut World, now: SimTime, q: usize, cause: DropCause) {
    world.metrics.csps_dropped += 1;
    match cause {
        DropCause::Crc => world.metrics.csps_dropped_crc += 1,
        DropCause::Overrun => world.metrics.csps_dropped_overrun += 1,
        DropCause::Injected => world.metrics.csps_dropped_injected += 1,
    }
    if let Some(o) = &world.obs {
        o.obs
            .instant(now.as_fs(), q as u32, Subsystem::Cluster, "csp_dropped");
    }
}

/// One ε sample after warm-up: the stamp-pair delay into the run
/// statistics, and its excess over the static bound `delay_min` into the
/// registry, where the sub-µs excess falls into buckets a few ns wide (the
/// whole ~68 µs delay would land in 1,024-ns buckets).
fn record_eps(world: &mut World, now: SimTime, delay: SimDuration) {
    if now.as_fs() >= world.cfg.warmup.as_fs() {
        world.metrics.eps_delay.add(delay.as_secs_f64());
        if let Some(o) = &mut world.obs {
            let excess = delay.saturating_sub(world.params.delay_min);
            o.eps_excess_ns.record(fs_to_ns(excess.as_fs()));
        }
    }
}

/// The trigger-to-latch budget: a stamp-pair delay measured at `t` on
/// node `q` must stay inside the static bound `delay_max` the algorithm
/// compensates with.
fn check_trigger_latency(world: &mut World, t: SimTime, q: usize, delay: SimDuration) {
    let bound = world.params.delay_max;
    if delay > bound {
        let excess = delay.as_fs() as i128 - bound.as_fs() as i128;
        world.violation(VIOL_TRIGGER_LATENCY, t.as_fs(), q as u32, excess);
    }
}

/// Step 2: preprocessing (delay compensation) and inbox insertion; also
/// feeds the rate estimator when rate sync is on (nothing else reads its
/// estimates). `marked` carries the frame's ECN-style congestion mark into
/// the node's [`CongestionPolicy`].
#[allow(clippy::too_many_arguments)]
fn process_csp(
    world: &mut World,
    eng: &mut Eng,
    q: usize,
    payload: CspPayload,
    xmit: (NtpTime, Accuracy, Accuracy),
    recv_local: NtpTime,
    marked: bool,
    chain: Option<Head>,
) {
    let node = &mut world.nodes[q];
    let csp = ReceivedCsp {
        payload,
        xmit_stamp: node.quantize(xmit.0),
        xmit_alpha: (xmit.1, xmit.2),
        recv_local,
    };
    let p = node.core.preprocess(&csp);
    if !node.core.accept_csp(p, marked) {
        return; // duplicated frame (first stamp stands) or discarded mark
    }
    if world.cfg.rate_sync {
        // Rate estimation uses the slew-compensated local clock:
        // subtracting the cumulative state adjustment keeps enforcement
        // slews out of the rate estimates (they would otherwise register
        // as rate error).
        let rate_local = recv_local.wrapping_add_units(-node.cum_adj_units);
        node.rate.observe(payload.node, csp.xmit_stamp, rate_local);
    }
    world.metrics.csps_delivered += 1;
    if let (Some(o), Some(mut head)) = (&mut world.obs, chain) {
        // Terminal hop: the CSP entered the algorithm's inbox.
        o.hop(HOP_ACCEPT, &mut head, eng.now(), q as u32);
    }
}

/// Poisson background NI traffic: occupies the medium.
pub(super) fn bg_load(world: &mut World, eng: &mut Eng, id: usize) {
    let Some(load) = world.cfg.bg_load else {
        return;
    };
    let now = eng.now();
    if !world.nodes[id].is_down() {
        let lan = world.topology.attachments(id)[0];
        let bits = ((nti_netsim::frame::PREAMBLE_LEN
            + nti_netsim::frame::HEADER_LEN
            + load.frame_bytes.max(nti_netsim::frame::MIN_PAYLOAD)
            + nti_netsim::frame::FCS_LEN)
            * 8) as u64;
        let _ = world.mediums[lan].grant(now, bits);
        world.metrics.bg_frames += 1;
    }
    // The next arrival (exponential) comes from the node's own stream.
    let mean = 1.0 / load.frames_per_sec.max(1e-9);
    let dt = SimDuration::from_secs_f64(world.bg_rng[id].exponential(mean).max(1e-6));
    eng.schedule_at(now + dt, move |w, e| bg_load(w, e, id));
}

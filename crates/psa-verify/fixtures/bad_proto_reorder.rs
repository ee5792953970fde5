// psa-verify-fixture: expect(protocol-order)
// A calculator that ships its frame digest BEFORE reporting Load: the
// manager's balance decision for this frame never sees this rank's cost,
// so the Figure-2 six-phase cycle silently degrades to static balancing.
// The conformance pass extracts the send/recv sequence and rejects the
// reordering against the calculator's state-machine table.
// psa-verify: protocol-role(calculator, frame_loop)

pub fn frame_loop(ep: &Endpoint) {
    match ep.recv_deadline(0) {
        Msg::Particles { batch, .. } => stage(batch),
    }
    match ep.recv_deadline(0) {
        Msg::EndOfTransmission { .. } => (),
    }
    ep.send(1, Msg::Particles { batch: take_outgoing() });
    match ep.recv_deadline(0) {
        Msg::Particles { batch, .. } => stage(batch),
    }
    ep.send_sized(9, Msg::FrameDigest { alive: held(), hash: fold() });
    ep.send(0, Msg::Load { info: cost_info() });
}

// psa-verify-fixture: expect(protocol-order)
// A calculator that ships its particles BEFORE the frame digest: the image
// generator reads the digest first and checks the batch that follows
// against its count, so this order hands it a `RenderSplats` where it
// expects a `FrameDigest` — and a run without a sink, which ships no
// particles at all, would have no digest-first prefix to fall back on.
// psa-verify: protocol-role(calculator, frame_loop)

pub fn frame_loop(ep: &Endpoint) {
    match ep.recv_deadline(0) {
        Msg::Particles { batch, .. } => stage(batch),
    }
    match ep.recv_deadline(0) {
        Msg::EndOfTransmission { .. } => (),
    }
    ep.send_sized(1, Msg::Particles { batch: take_outgoing() });
    match ep.recv_deadline(0) {
        Msg::Particles { batch, .. } => stage(batch),
    }
    ep.send_sized(0, Msg::Load { info: cost_info() });
    ep.send_sized(9, Msg::RenderSplats { batch: take_render() });
    ep.send_sized(9, Msg::FrameDigest { alive: held(), hash: fold() });
}

// psa-verify-fixture: expect(protocol-order)
// A calculator that ships its render batch and only THEN waits for the
// image generator's `FrameDone`: the token is the bound on how many frames
// of particles sit queued ahead of the rasterizer, so a wait placed after
// the send bounds nothing — every frame is already in the channel by the
// time the calculator stops to ask whether there was room for it.
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
    ep.send_sized(9, Msg::FrameDigest { alive: held(), hash: fold() });
    ep.send_sized(9, Msg::RenderSplats { batch: take_render() });
    match ep.recv_deadline(9) {
        Msg::FrameDone { .. } => (),
    }
}

// A conforming calculator frame loop, including a helper the extractor
// must inline at its call site: creation in, exchange (sends then
// receives), load report, ship (digest, then the particles a sink asked
// for). The optional dynamic-balance steps (Orders/NewCut/Domains) are
// legitimately absent — a run with balancing disabled still conforms, and
// so would one that ships the digest alone. Must produce zero violations.
// psa-verify: protocol-role(calculator, frame_loop)

pub fn frame_loop(ep: &Endpoint) {
    match ep.recv_deadline(0) {
        Msg::Particles { batch, .. } => stage(batch),
    }
    match ep.recv_deadline(0) {
        Msg::EndOfTransmission { .. } => (),
    }
    exchange(ep);
    ep.send(0, Msg::Load { info: cost_info() });
    ep.send_sized(9, Msg::FrameDigest { alive: held(), hash: fold() });
    ep.send_sized(9, Msg::RenderSplats { batch: take_render() });
}

fn exchange(ep: &Endpoint) {
    for dest in neighbors() {
        ep.send(dest, Msg::Particles { batch: outgoing_for(dest) });
    }
    for _ in neighbors() {
        match ep.recv_deadline(0) {
            Msg::Particles { batch, .. } => stage(batch),
        }
    }
}

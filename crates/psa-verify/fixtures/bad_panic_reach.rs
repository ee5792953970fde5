// psa-verify-fixture: expect(panic-reach)
// Clippy refuses the same construct by path: crates/psa-verify/tests/clippy_fixtures.rs.
// A panic two calls below a message handler: the handler itself is clean,
// but the decoder it calls unwraps. When a torn-down peer sends a short
// frame, the rank thread dies holding its channels and every peer blocked
// on a receive deadlocks. The reachability pass proves the protocol root
// reaches the unwrap, wherever the decoder lives.
// psa-verify: panic-entry(handle_frame)

pub fn handle_frame(bytes: &[u8]) -> u64 {
    decode_header(bytes)
}

fn decode_header(bytes: &[u8]) -> u64 {
    bytes.first().copied().unwrap() as u64
}

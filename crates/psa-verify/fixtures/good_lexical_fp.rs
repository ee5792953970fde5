// Regression corpus for the v1 substring scanner's false-positive
// classes: identifiers that *contain* a source or panic needle, method
// names that extend one, needles in strings/doc comments, and test-only
// code. A phase entry and a panic root reach all of it, and the
// token-sequence matcher must fire on none of these.
// Must produce zero violations.
// psa-verify: panic-entry(unwrap_or_else_is_not_unwrap)

/// Discusses HashMap and Instant::now in prose — docs are not uses.
pub struct BuildHashMapConfig {
    pub shards: usize,
}

pub fn unwrap_or_else_is_not_unwrap(v: Option<u64>) -> u64 {
    v.unwrap_or_else(|| 0)
}

pub fn phase_calculus(thread_rng_label: &str) -> usize {
    let recv_window = "ep.recv(peer) in a string is not a call";
    thread_rng_label.len() + recv_window.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_panic_spawn_and_block() {
        let h = std::thread::spawn(|| 1u64);
        assert_eq!(h.join().unwrap(), 1);
        BuildHashMapConfig { shards: 1 }.shards.checked_sub(1).expect("shards");
    }
}

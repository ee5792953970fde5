// A clean file: panics inside #[cfg(test)] / #[test] items are exempt from
// panic reachability (tests SHOULD assert hard), and source needles in
// strings or comments never count as uses. Must produce zero violations.
// psa-verify: panic-entry(shipped)

pub fn shipped(input: Option<u32>) -> Result<u32, String> {
    // Instant::now in a comment is not a use.
    let banned = "HashMap and thread_rng in a string are not uses";
    input.map(|v| v + banned.len() as u32).ok_or_else(|| "no input".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_accepts_some() {
        assert_eq!(shipped(Some(1)).unwrap(), 48);
        shipped(None).expect_err("must reject none");
    }
}

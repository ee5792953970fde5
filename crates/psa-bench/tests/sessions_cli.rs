//! `bench sessions` command-line contract: bad input is a usage error that
//! names the flag, before the pool is built, never a panic.

mod common;

/// Zero sessions, lanes, slices, slots, tenants, per-tenant caps or
/// particles, an unparsable or out-of-range number and a missing or unknown
/// scene name each exit 2.
#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, why) in [
        (&["sessions", "--sessions", "0"][..], "an empty report"),
        (&["sessions", "--particles", "0"], "empty sessions"),
        (&["sessions", "--workers", "0"], "no lanes"),
        (&["sessions", "--slice", "0"], "a slice of no frames"),
        (&["sessions", "--per-tenant", "0"], "no place per tenant"),
        (&["sessions", "--max-in-flight", "0"], "no in-flight place"),
        (&["sessions", "--tenants", "0"], "no tenant"),
        (&["sessions", "--tenants", "4294967296"], "more tenants than a TenantId holds"),
        (&["sessions", "--frames", "abc"], "unparsable number"),
        (&["sessions", "--frames"], "missing value"),
        (&["sessions", "--scene"], "missing name"),
        (&["sessions", "--scene", "marble"], "unknown scene"),
        (&["sessions", "--instrument", "on"], "a switch takes no value: `on` is no flag"),
    ] {
        common::assert_usage_error(args, why);
    }
}

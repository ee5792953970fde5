//! `bench chaos` command-line contract: bad input prints what was wrong and
//! the usage, exits 2, and runs nothing.

mod common;

#[test]
fn bad_flags_exit_2_with_usage() {
    for (args, why) in [
        (&["chaos", "--frames", "x"][..], "unparsable number"),
        (&["chaos", "--seed", "x"], "unparsable number"),
        (&["chaos", "--calculators", "1"], "a kill scenario needs a survivor"),
        (&["chaos", "--calculators"], "missing value"),
        (&["chaos", "--matrix", "big"], "unknown matrix"),
        (&["chaos", "--bogus"], "unknown flag"),
        (&["chaos", "full"], "the matrix is a flag: `full` is no selection"),
        // Too short for the kill scenarios to be declared: the FAIL cells
        // would come from the run length, not from the protocol.
        (&["chaos", "--frames", "7"], "the smoke set needs `at least 8`"),
        (&["chaos", "--frames", "3"], "the smoke set needs `at least 8`"),
        (&["chaos", "--matrix", "full", "--seed", "1905", "--frames", "8"], "`at least 9`"),
    ] {
        common::assert_usage_error(args, why);
    }
}

//! `RunCounts` against the process-wide registry: a run built while
//! the registry is off holds nothing, one built while it is on counts
//! from zero, the flag is read once, and a clone starts from zero. The
//! global registry is shared by every test in a binary, so this check
//! has a binary of its own.

use rtm_obs::metrics::RunCounts;

#[test]
fn run_counts_follow_the_registry_flag_at_construction() {
    let reg = rtm_obs::global().registry();
    let mut off = RunCounts::<u64>::new();
    assert!(
        off.get().is_none(),
        "built while off: nothing to count into"
    );

    reg.set_enabled(true);
    let mut run = RunCounts::<u64>::new();
    reg.set_enabled(false);
    *run.get().expect("built while on") += 5;
    assert_eq!(run.get().copied(), Some(5), "the flag is read once");
    let mut copy = run.clone();
    assert_eq!(copy.get().copied(), Some(0), "a clone starts from zero");
    assert!(off.get().is_none());
}

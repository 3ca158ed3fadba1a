//! Command-line contract of `repro --scheme`: the matrix's vocabulary is
//! the seven schemes with a Table 5 row, in Table 5 order; a variant
//! without one (SED) is refused like any unknown name.

use std::process::{Command, Output};

const SCHEMES: [&str; 7] = [
    "sts",
    "pecc",
    "pecc-o",
    "pecc-s-worst",
    "pecc-s-adaptive",
    "chee-kiah",
    "vahid-2di",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns")
}

#[test]
fn list_schemes_prints_the_seven_in_table5_order() {
    let out = repro(&["--list-schemes"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        SCHEMES.map(|s| format!("{s}\n")).concat()
    );
}

#[test]
fn a_variant_without_a_table5_row_is_an_unknown_scheme() {
    let out = repro(&["--scheme", "sed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "error: --scheme: unknown scheme sed; known: {}\n",
            SCHEMES.join(", ")
        )
    );
}

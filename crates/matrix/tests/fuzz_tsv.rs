//! The stacked-TSV dataset parser, which every upload to the daemon goes
//! through, must answer any input with a matrix or a typed error — never a
//! panic. Inputs are arbitrary bytes biased toward the format's tokens, and
//! valid files cut short at any byte.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tricluster_matrix::{io, Labels, Matrix3};

/// Fragments of the format (and of its error cases) that random bytes
/// rarely spell out.
const TOKENS: &[&[u8]] = &[
    b"# time ", b"#", b"\t", b"\n", b"\r\n", b" ", b"gene", b"g0", b"s1", b"0", b"1.5", b"-2e3",
    b"NA", b"nan", b"inf", b"1e999", b"\xff", b"\xc3",
];

/// Token-biased lines: each line is a `# time` header one time in four,
/// then tab-separated fields whose parts are each a token or one arbitrary
/// byte.
fn tsv_bytes() -> impl Strategy<Value = Vec<u8>> {
    let field = proptest::collection::vec((0usize..TOKENS.len() + 4, 0u32..256), 0..3);
    let line = (0usize..4, proptest::collection::vec(field, 0..6));
    proptest::collection::vec(line, 0..16).prop_map(|lines| {
        let mut out = Vec::new();
        for (kind, fields) in lines {
            if kind == 0 {
                out.extend_from_slice(b"# time ");
            }
            for (i, parts) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(b'\t');
                }
                for &(pick, byte) in parts {
                    match TOKENS.get(pick) {
                        Some(token) => out.extend_from_slice(token),
                        None => out.push(byte as u8),
                    }
                }
            }
            out.push(b'\n');
        }
        out
    })
}

fn small_matrix() -> impl Strategy<Value = Matrix3> {
    (1usize..6, 1usize..5, 1usize..4).prop_flat_map(|(g, s, t)| {
        proptest::collection::vec(-100.0f64..100.0, g * s * t).prop_map(move |vals| {
            let mut m = Matrix3::zeros(g, s, t);
            m.as_mut_slice().copy_from_slice(&vals);
            m
        })
    })
}

fn stacked(m: &Matrix3) -> Vec<u8> {
    let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
    let mut out = Vec::new();
    io::write_stacked_tsv(&mut out, m, &labels).unwrap();
    out
}

/// Parses `bytes`, failing on a panic; an accepted file's labels must
/// describe its matrix.
fn parse_never_panics(bytes: &[u8]) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| io::read_stacked_tsv(bytes))) {
        Ok(Ok((m, labels))) => {
            prop_assert_eq!(labels.genes().len(), m.n_genes());
            prop_assert_eq!(labels.samples().len(), m.n_samples());
            prop_assert_eq!(labels.times().len(), m.n_times());
            Ok(())
        }
        Ok(Err(_)) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!(
            "parser panicked on {:?}",
            String::from_utf8_lossy(bytes)
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in tsv_bytes()) {
        parse_never_panics(&bytes)?;
    }

    #[test]
    fn truncated_files_never_panic(m in small_matrix(), cut in 0.0f64..1.0) {
        let full = stacked(&m);
        let at = (cut * full.len() as f64) as usize;
        parse_never_panics(&full[..at])?;
    }
}

/// Every prefix of one multi-slice file, byte by byte.
#[test]
fn every_prefix_of_a_valid_file_parses_or_errs() {
    let mut m = Matrix3::zeros(3, 2, 2);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        *v = i as f64 * 1.25 - 3.0;
    }
    let full = stacked(&m);
    for at in 0..=full.len() {
        if let Err(e) = parse_never_panics(&full[..at]) {
            panic!("prefix of {at} bytes: {e:?}");
        }
    }
}

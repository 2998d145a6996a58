#![allow(clippy::field_reassign_with_default)]

//! Property tests for the DML engine: randomly generated programs are
//! evaluated by the full parse → compile → optimize → execute stack and
//! checked against a direct reference evaluation. This exercises constant
//! folding, CSE, and instruction execution on arbitrary expression shapes.

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::testing::Gen;
use sysds_common::{property, EngineConfig};
use sysds_tensor::kernels::gen;
use sysds_tensor::Matrix;

fn session() -> SystemDS {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-dml-proptests");
    SystemDS::with_config(config).unwrap()
}

/// A random arithmetic expression together with its reference value.
/// Values stay in f64-exact integer territory so comparisons are exact.
#[derive(Debug, Clone)]
struct GenExpr {
    text: String,
    value: f64,
}

/// An expression at most `depth` operators deep over leaves in `-50..50`;
/// each level is a leaf with probability 1/3.
fn expr(g: &mut Gen, depth: u32) -> GenExpr {
    if depth == 0 || g.int(0..3u8) == 0 {
        let v = g.int(-50i64..50);
        return GenExpr {
            text: format!("{v}"),
            value: v as f64,
        };
    }
    let (a, b) = (expr(g, depth - 1), expr(g, depth - 1));
    match g.int(0u8..5) {
        0 => GenExpr {
            text: format!("({} + {})", a.text, b.text),
            value: a.value + b.value,
        },
        1 => GenExpr {
            text: format!("({} - {})", a.text, b.text),
            value: a.value - b.value,
        },
        2 => GenExpr {
            text: format!("({} * {})", a.text, b.text),
            value: a.value * b.value,
        },
        3 => GenExpr {
            text: format!("min({}, {})", a.text, b.text),
            value: a.value.min(b.value),
        },
        _ => GenExpr {
            text: format!("max({}, {})", a.text, b.text),
            value: a.value.max(b.value),
        },
    }
}

/// Fully assigned ranges of the regex class `\PC` (no control, format,
/// private-use or unassigned code points), 1- to 4-byte UTF-8.
const PRINTABLE: [(u32, u32); 10] = [
    (0x20, 0x7E),
    (0xA0, 0xAC),
    (0xAE, 0x377),
    (0x3A3, 0x52F),
    (0xB4B, 0xB4D),
    (0x2010, 0x2027),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7A3),
    (0x1D400, 0x1D454),
    (0x1F600, 0x1F64F),
];

/// `\PC{0,200}`: up to 200 such characters, half of them ASCII.
fn printable(g: &mut Gen) -> String {
    let chars = g.vec(0..=200, |g| {
        let other = g.pick(&PRINTABLE[1..]);
        let (lo, hi) = g.pick(&[PRINTABLE[0], other]);
        char::from_u32(g.int(lo..=hi)).expect("no surrogates")
    });
    chars.into_iter().collect()
}

const FRAGMENTS: [&str; 28] = [
    "x", "=", "(", ")", "{", "}", "[", "]", "+", "*", "%*%", ",", "if", "else", "for", "while",
    "function", "return", "1", "2.5", "\"s\"", "in", ":", "t", "sum", "rand", "<-", ";",
];

property! {
    #![cases(32)]
    g;

    #[test]
    fn random_arithmetic_matches_reference(e in expr(g, 4)) {
        let mut s = session();
        let out = s.execute(&format!("x = {}", e.text), &[], &["x"]).unwrap();
        assert_eq!(out.f64("x").unwrap(), e.value, "expr {}", e.text);
    }

    #[test]
    fn loop_accumulation_matches_closed_form(n in g.int(1i64..40), step in g.int(1i64..5)) {
        let mut s = session();
        let script = format!(
            "acc = 0\nfor (i in seq(1, {n}, {step})) {{ acc = acc + i }}"
        );
        let out = s.execute(&script, &[], &["acc"]).unwrap();
        let expect: i64 = (1..=n).step_by(step as usize).sum();
        assert_eq!(out.f64("acc").unwrap(), expect as f64);
    }

    #[test]
    fn branching_matches_reference(a in g.int(-20i64..20), b in g.int(-20i64..20)) {
        let mut s = session();
        let script = format!(
            "if ({a} > {b}) {{ r = {a} - {b} }} else {{ r = {b} - {a} }}"
        );
        let out = s.execute(&script, &[], &["r"]).unwrap();
        assert_eq!(out.f64("r").unwrap(), (a - b).abs() as f64);
    }

    #[test]
    fn matrix_scalar_pipeline_matches(rows in g.int(1usize..12), cols in g.int(1usize..8), s1 in g.int(-5i64..5)) {
        let mut sess = session();
        let script = format!(
            r#"
            X = matrix({s1}, rows={rows}, cols={cols})
            Y = (X + 1) * 2
            total = sum(Y)
            "#
        );
        let out = sess.execute(&script, &[], &["total"]).unwrap();
        let expect = ((s1 + 1) * 2) as f64 * (rows * cols) as f64;
        assert_eq!(out.f64("total").unwrap(), expect);
    }

    #[test]
    fn parfor_and_for_agree(n in g.int(1usize..12)) {
        let mut s = session();
        let script = format!(
            r#"
            A = matrix(0, rows=1, cols={n})
            B = matrix(0, rows=1, cols={n})
            for (i in 1:{n}) {{ A[1, i] = i * i }}
            parfor (i in 1:{n}) {{ B[1, i] = i * i }}
            d = sum((A - B) * (A - B))
            "#
        );
        let out = s.execute(&script, &[], &["d"]).unwrap();
        assert_eq!(out.f64("d").unwrap(), 0.0);
    }

    #[test]
    fn cse_never_changes_results(a in g.int(-10i64..10), b in g.int(1i64..10)) {
        // The same subexpression appears three times; CSE must not alter
        // the value.
        let mut s = session();
        let script = format!(
            "x = ({a} * {b} + 1) + ({a} * {b} + 1) + ({a} * {b} + 1)"
        );
        let out = s.execute(&script, &[], &["x"]).unwrap();
        assert_eq!(out.f64("x").unwrap(), 3.0 * (a * b + 1) as f64);
    }

    #[test]
    fn while_loop_terminates_correctly(target in g.int(1i64..1000)) {
        let mut s = session();
        let script = format!(
            "i = 0\nwhile (2 ^ i < {target}) {{ i = i + 1 }}"
        );
        let out = s.execute(&script, &[], &["i"]).unwrap();
        let expect = (0..).find(|&i| 2f64.powi(i) >= target as f64).unwrap();
        assert_eq!(out.f64("i").unwrap(), expect as f64);
    }
}

property! {
    #![cases(256)]
    g;

    /// The parser must never panic: arbitrary input either parses or
    /// returns a positioned error.
    #[test]
    fn parser_never_panics_on_arbitrary_input(src in printable(g)) {
        let _ = sysds::parser::parse_program(&src);
    }

    /// Arbitrary token soup built from DML fragments must also never
    /// panic anywhere in parse + compile.
    #[test]
    fn compiler_never_panics_on_fragment_soup(
        parts in g.vec(0..40, |g| g.pick(&FRAGMENTS)),
    ) {
        let src = parts.join(" ");
        if let Ok(ast) = sysds::parser::parse_program(&src) {
            let _ = sysds::compiler::compile_program(&ast, &|_| None);
        }
    }
}

property! {
    #![cases(16)]
    g;

    /// `imputeByMean` fills every NaN and leaves observed cells as they were.
    #[test]
    fn impute_removes_all_nans_and_preserves_observed(
        mut vals in g.vec(3..50, |g| g.float(-100.0..100.0)),
        nan_at in g.vec(0..5, |g| g.int(0usize..50)),
    ) {
        for &i in &nan_at {
            if i < vals.len() - 1 {
                vals[i] = f64::NAN;
            }
        }
        // guarantee at least one observed value
        let last = vals.len() - 1;
        vals[last] = 1.0;
        let n = vals.len();
        let m = Matrix::from_vec(n, 1, vals.clone()).unwrap();
        let out = session()
            .execute("[Y, R] = imputeByMean(X)", &[("X", Data::from_matrix(m))], &["Y"])
            .unwrap();
        let fixed = out.matrix("Y").unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert!(!fixed.get(i, 0).is_nan());
            if !v.is_nan() {
                assert_eq!(fixed.get(i, 0), v);
            }
        }
    }

    /// After clamping at k sigma, nothing lies beyond 1.5k sigma.
    #[test]
    fn winsorize_bounds_all_cells(seed in g.seed(), k in g.float(1.0f64..4.0)) {
        let m = gen::rand_uniform(40, 3, -10.0, 10.0, 1.0, seed);
        let script = format!("O = outlierBySd(winsorizeBySd(X, {k}), {})", k * 1.5);
        let out = session()
            .execute(&script, &[("X", Data::from_matrix(m))], &["O"])
            .unwrap();
        assert_eq!(out.matrix("O").unwrap().nnz(), 0);
    }
}

/// A combining mark after two quotes once panicked the parser.
#[test]
fn parser_regression_combining_mark_after_quotes() {
    let _ = sysds::parser::parse_program("''\u{B4B}");
}

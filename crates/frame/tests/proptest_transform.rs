//! Property tests over the transformation encoders: encode/decode
//! invariants that must hold for any data.

use sysds_common::property;
use sysds_frame::{Frame, FrameColumn, TransformEncoder, TransformSpec};

fn string_frame(categories: Vec<String>, numbers: Vec<f64>) -> Frame {
    Frame::from_columns(vec![
        ("cat".into(), FrameColumn::Str(categories)),
        ("num".into(), FrameColumn::F64(numbers)),
    ])
    .unwrap()
}

property! {
    #![cases(32)]
    g;

    #[test]
    fn recode_codes_are_dense_and_consistent(
        cats in g.vec(1..50, |g| g.string("a-e", 1..=2)),
    ) {
        let n = cats.len();
        let f = string_frame(cats.clone(), vec![0.0; n]);
        let enc = TransformEncoder::fit(&f, &TransformSpec::new().recode("cat")).unwrap();
        let m = enc.apply(&f).unwrap();
        // codes are 1..=K with no gaps, identical strings → identical codes
        let mut seen = std::collections::HashMap::new();
        let mut max_code = 0.0f64;
        for (i, c) in cats.iter().enumerate() {
            let code = m.get(i, 0);
            assert!(code >= 1.0);
            max_code = max_code.max(code);
            if let Some(&prev) = seen.get(c) {
                assert_eq!(prev, code);
            }
            seen.insert(c.clone(), code);
        }
        assert_eq!(max_code as usize, seen.len());
    }

    #[test]
    fn dummy_code_rows_sum_to_one(cats in g.vec(1..40, |g| g.string("a-d", 1..=1))) {
        let n = cats.len();
        let f = string_frame(cats, vec![1.0; n]);
        let enc = TransformEncoder::fit(&f, &TransformSpec::new().dummy_code("cat")).unwrap();
        let m = enc.apply(&f).unwrap();
        let width = enc.output_cols() - 1; // minus the passthrough column
        for i in 0..n {
            let s: f64 = (0..width).map(|j| m.get(i, j)).sum();
            assert_eq!(s, 1.0, "exactly one indicator per row");
        }
    }

    #[test]
    fn bin_codes_in_range(
        nums in g.vec(2..60, |g| g.float(-1e3..1e3)),
        bins in g.int(1usize..10),
    ) {
        let n = nums.len();
        let f = string_frame(vec!["x".into(); n], nums);
        let enc = TransformEncoder::fit(&f, &TransformSpec::new().bin("num", bins)).unwrap();
        let m = enc.apply(&f).unwrap();
        for i in 0..n {
            let code = m.get(i, 1);
            assert!(code >= 1.0 && code <= bins as f64);
        }
    }

    #[test]
    fn metadata_round_trip_equivalence(
        cats in g.vec(2..30, |g| g.string("a-c", 1..=2)),
        bins in g.int(2usize..6),
    ) {
        let n = cats.len();
        let nums: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let f = string_frame(cats, nums);
        let spec = TransformSpec::new().dummy_code("cat").bin("num", bins);
        let enc = TransformEncoder::fit(&f, &spec).unwrap();
        let enc2 = TransformEncoder::from_metadata(&enc.to_metadata()).unwrap();
        let (a, b) = (enc.apply(&f).unwrap(), enc2.apply(&f).unwrap());
        assert!(a.approx_eq(&b, 0.0));
    }
}

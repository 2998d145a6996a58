//! The differential oracle: run one script under a matrix of optimizer and
//! runtime configurations and demand identical results.
//!
//! This is the declarative-system contract the paper's optimizer relies on:
//! fusion, threading, lineage reuse, buffer-pool eviction, recompilation,
//! and federation are *plan* choices — none may change the computed values
//! beyond floating-point reassociation noise. The reference configuration
//! turns every optimization off (no fusion, one thread, no reuse, an
//! effectively unbounded buffer pool); each variant turns one dimension on.
//!
//! Comparison policy: shapes must match exactly; scalars and cells compare
//! with a relative tolerance of `1e-9` (`|a-b| <= 1e-9 * max(1, |a|, |b|)`),
//! NaNs are equal to NaNs. Divergences are reported as the *first* differing
//! output variable (in definition order) plus both configurations' plan
//! fingerprints so a report names which plans disagreed.

use crate::gen::Script;
use std::sync::Arc;
use sysds::api::{ScriptOutputs, SystemDS};
use sysds_common::config::ReusePolicy;
use sysds_common::rng::{split, XorShift64};
use sysds_common::testing::unique_temp_dir;
use sysds_common::{EngineConfig, NetConfig, Result, ScalarValue};
use sysds_fed::Transport;
use sysds_net::WorkerServer;
use sysds_tensor::Matrix;

/// Relative tolerance for value comparison across configurations.
pub const REL_TOL: f64 = 1e-9;

/// One entry in the configuration matrix.
pub struct OracleConfig {
    /// Short stable name used in reports ("reference", "fusion", ...).
    pub name: &'static str,
    pub config: EngineConfig,
}

/// A confirmed cross-configuration mismatch.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the generated script (0 for corpus entries).
    pub seed: u64,
    /// The two configuration names that disagreed.
    pub config_a: String,
    pub config_b: String,
    /// First output variable (definition order) that differs.
    pub variable: String,
    /// Human-readable detail (shape mismatch, cell index + values, error).
    pub detail: String,
    /// Plan fingerprints under each configuration (hex, via sysds-obs).
    pub fingerprint_a: String,
    pub fingerprint_b: String,
}

impl Divergence {
    /// Deterministic single-line rendering (no paths, no timing).
    pub fn render(&self) -> String {
        format!(
            "seed={} var={} configs={}<->{} plans={}<->{} :: {}",
            self.seed,
            self.variable,
            self.config_a,
            self.config_b,
            self.fingerprint_a,
            self.fingerprint_b,
            self.detail
        )
    }
}

fn base_config() -> EngineConfig {
    EngineConfig {
        spill_dir: unique_temp_dir("sysds-conf-oracle"),
        num_threads: 1,
        fusion: false,
        lineage: false,
        reuse: ReusePolicy::None,
        buffer_pool_limit: 4 << 30,
        ..EngineConfig::default()
    }
}

/// The local configuration matrix. Index 0 is always the reference.
pub fn config_matrix() -> Vec<OracleConfig> {
    let mut m = vec![OracleConfig {
        name: "reference",
        config: base_config(),
    }];
    m.push(OracleConfig {
        name: "fusion",
        config: {
            let mut c = base_config();
            c.fusion = true;
            c
        },
    });
    m.push(OracleConfig {
        name: "threads4",
        config: {
            let mut c = base_config();
            c.fusion = true;
            c.num_threads = 4;
            c
        },
    });
    m.push(OracleConfig {
        name: "reuse",
        config: {
            let mut c = base_config();
            c.fusion = true;
            c.lineage = true;
            c.reuse = ReusePolicy::FullAndPartial;
            c
        },
    });
    m.push(OracleConfig {
        name: "evict",
        config: {
            let mut c = base_config();
            c.fusion = true;
            // A few KiB: every matrix beyond a handful of cells is evicted
            // and restored, exercising spill round-trips mid-script.
            c.buffer_pool_limit = 8 << 10;
            c
        },
    });
    m.push(OracleConfig {
        name: "reuse_evict",
        config: {
            let mut c = base_config();
            c.fusion = true;
            c.lineage = true;
            c.reuse = ReusePolicy::FullAndPartial;
            // Cached values live behind pool handles, so they spill and
            // restore like any variable, and hits read restored data.
            c.buffer_pool_limit = 8 << 10;
            c
        },
    });
    m.push(OracleConfig {
        name: "norecompile",
        config: {
            let mut c = base_config();
            c.fusion = true;
            c.dynamic_recompile = false;
            c
        },
    });
    m
}

/// Compare two scalars under the tolerance policy.
fn scalar_close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= REL_TOL * f64::max(1.0, f64::max(a.abs(), b.abs()))
}

/// First difference between two output values, or `None` when equivalent.
fn diff_value(a_out: &ScriptOutputs, b_out: &ScriptOutputs, name: &str) -> Option<String> {
    // Scalar vs scalar: compare by kind first, then value.
    let (a, b) = match (a_out.get(name), b_out.get(name)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(_), Ok(_)) => return Some("missing in first config".into()),
        (Ok(_), Err(_)) => return Some("missing in second config".into()),
        (Err(_), Err(_)) => return None,
    };
    match (a.as_scalar(), b.as_scalar()) {
        (Ok(sa), Ok(sb)) => {
            let close = match (&sa, &sb) {
                (ScalarValue::F64(x), ScalarValue::F64(y)) => scalar_close(*x, *y),
                _ => sa == sb,
            };
            if close {
                None
            } else {
                Some(format!("scalar {sa:?} != {sb:?}"))
            }
        }
        _ => {
            let ma = match a.as_matrix() {
                Ok(m) => m,
                Err(e) => return Some(format!("not a matrix in first config: {e}")),
            };
            let mb = match b.as_matrix() {
                Ok(m) => m,
                Err(e) => return Some(format!("not a matrix in second config: {e}")),
            };
            if ma.shape() != mb.shape() {
                return Some(format!("shape {:?} != {:?}", ma.shape(), mb.shape()));
            }
            for i in 0..ma.rows() {
                for j in 0..ma.cols() {
                    let (x, y) = (ma.get(i, j), mb.get(i, j));
                    if !scalar_close(x, y) {
                        return Some(format!("cell ({i},{j}): {x:?} != {y:?}"));
                    }
                }
            }
            None
        }
    }
}

fn run_under(
    script_text: &str,
    config: EngineConfig,
    inputs: &[(&str, sysds::runtime::value::Data)],
    outputs: &[&str],
) -> Result<(ScriptOutputs, u64)> {
    let mut sds = SystemDS::with_config(config)?;
    let program = sds.compile(script_text)?;
    let fp = sds.plan_fingerprint(&program);
    let out = sds.execute_program(&program, inputs, outputs)?;
    Ok((out, fp))
}

/// Run `script` under the full local configuration matrix (plus transports
/// for federated scripts); return the first divergence found.
pub fn check_script(script: &Script) -> Result<Option<Divergence>> {
    if script.fed_input.is_some() {
        return check_fed_script(script);
    }
    let text = script.render();
    let out_names: Vec<&str> = script.outputs.iter().map(String::as_str).collect();
    let matrix = config_matrix();
    let (ref_out, ref_fp) = run_under(&text, matrix[0].config.clone(), &[], &out_names)?;
    for oc in &matrix[1..] {
        let (out, fp) = match run_under(&text, oc.config.clone(), &[], &out_names) {
            Ok(r) => r,
            Err(e) => {
                return Ok(Some(Divergence {
                    seed: script.seed,
                    config_a: matrix[0].name.into(),
                    config_b: oc.name.into(),
                    variable: "<execution>".into(),
                    detail: format!("error under {}: {e}", oc.name),
                    fingerprint_a: sysds_obs::render_fingerprint(ref_fp),
                    fingerprint_b: "n/a".into(),
                }));
            }
        };
        for name in &script.outputs {
            if let Some(detail) = diff_value(&ref_out, &out, name) {
                return Ok(Some(Divergence {
                    seed: script.seed,
                    config_a: matrix[0].name.into(),
                    config_b: oc.name.into(),
                    variable: name.clone(),
                    detail,
                    fingerprint_a: sysds_obs::render_fingerprint(ref_fp),
                    fingerprint_b: sysds_obs::render_fingerprint(fp),
                }));
            }
        }
    }
    Ok(None)
}

/// Deterministic input matrix for federated scripts.
pub fn fed_input_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = XorShift64::new(split(seed, 0x1a7e));
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.next_range(-1.0, 1.0))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data length")
}

/// Federated oracle: the same script and data under (a) a plain local
/// binding of `X`, (b) in-process federation over 2 and 3 workers, and
/// (c) TCP federation over 2 networked worker servers.
fn check_fed_script(script: &Script) -> Result<Option<Divergence>> {
    let fed = script.fed_input.expect("caller checked fed_input");
    let text = script.render();
    let out_names: Vec<&str> = script.outputs.iter().map(String::as_str).collect();
    let x = fed_input_matrix(script.seed, fed.rows, fed.cols);

    let fed_cfg = EngineConfig {
        spill_dir: unique_temp_dir("sysds-conf-fed"),
        num_threads: 2,
        ..EngineConfig::default()
    };

    // Reference: plain local execution.
    let (ref_out, ref_fp) = {
        let mut sds = SystemDS::with_config(fed_cfg.clone())?;
        let program = sds.compile(&text)?;
        let fp = sds.plan_fingerprint(&program);
        let xd = sds.matrix(x.clone())?;
        let out = sds.execute_program(&program, &[("X", xd)], &out_names)?;
        (out, fp)
    };

    let mut variants: Vec<(String, Result<(ScriptOutputs, u64)>)> = Vec::new();
    for workers in [2usize, 3] {
        let run = (|| {
            let mut sds = SystemDS::with_config(fed_cfg.clone())?;
            let program = sds.compile(&text)?;
            let fp = sds.plan_fingerprint(&program);
            let xd = sds.federate(&x, workers)?;
            let out = sds.execute_program(&program, &[("X", xd)], &out_names)?;
            Ok((out, fp))
        })();
        variants.push((format!("fed{workers}"), run));
    }
    // TCP transport: two in-process worker servers over real sockets.
    {
        let run = (|| {
            // Declared first, so the servers outlive the session and the
            // federated values that free their site variables on drop.
            let servers: Vec<WorkerServer> = (0..2)
                .map(|_| WorkerServer::bind("127.0.0.1:0", vec![], 1))
                .collect::<Result<_>>()?;
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let addr_refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
            let mut sds = SystemDS::with_config(fed_cfg.clone())?;
            let program = sds.compile(&text)?;
            let fp = sds.plan_fingerprint(&program);
            let sites: Vec<Arc<dyn Transport>> =
                sds.connect_sites(&addr_refs, NetConfig::default())?;
            let xd = sds.federate_with(&x, &sites)?;
            let out = sds.execute_program(&program, &[("X", xd)], &out_names)?;
            Ok((out, fp))
        })();
        variants.push(("tcp2".into(), run));
    }

    for (vname, run) in variants {
        let (out, fp) = match run {
            Ok(r) => r,
            Err(e) => {
                return Ok(Some(Divergence {
                    seed: script.seed,
                    config_a: "local".into(),
                    config_b: vname.clone(),
                    variable: "<execution>".into(),
                    detail: format!("error under {vname}: {e}"),
                    fingerprint_a: sysds_obs::render_fingerprint(ref_fp),
                    fingerprint_b: "n/a".into(),
                }));
            }
        };
        for name in &script.outputs {
            if let Some(detail) = diff_value(&ref_out, &out, name) {
                return Ok(Some(Divergence {
                    seed: script.seed,
                    config_a: "local".into(),
                    config_b: vname,
                    variable: name.clone(),
                    detail,
                    fingerprint_a: sysds_obs::render_fingerprint(ref_fp),
                    fingerprint_b: sysds_obs::render_fingerprint(fp),
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenOptions};

    #[test]
    fn tolerance_accepts_reassociation_noise() {
        assert!(scalar_close(1.0, 1.0 + 1e-12));
        assert!(scalar_close(1e12, 1e12 + 1.0));
        assert!(scalar_close(f64::NAN, f64::NAN));
        assert!(!scalar_close(1.0, 1.001));
        assert!(!scalar_close(0.0, 1e-6));
    }

    #[test]
    fn matrix_has_reference_first_and_all_dimensions() {
        let m = config_matrix();
        assert_eq!(m[0].name, "reference");
        let names: Vec<&str> = m.iter().map(|c| c.name).collect();
        let expected = [
            "fusion",
            "threads4",
            "reuse",
            "evict",
            "reuse_evict",
            "norecompile",
        ];
        assert_eq!(names.len(), expected.len() + 1);
        for expected in expected {
            assert!(names.contains(&expected), "missing config {expected}");
        }
        assert!(!m[0].config.fusion);
        assert_eq!(m[0].config.num_threads, 1);
    }

    #[test]
    fn a_simple_generated_script_passes_the_matrix() {
        let script = generate(7, GenOptions::default());
        let div = check_script(&script).expect("oracle runs");
        assert!(div.is_none(), "unexpected divergence: {:?}", div);
    }

    #[test]
    fn fed_input_matrix_is_deterministic() {
        let a = fed_input_matrix(9, 5, 3);
        let b = fed_input_matrix(9, 5, 3);
        assert_eq!(a.to_vec(), b.to_vec());
        let c = fed_input_matrix(10, 5, 3);
        assert_ne!(a.to_vec(), c.to_vec());
    }
}

//! DML-bodied builtin functions (paper §2.2).
//!
//! "To facilitate the development and compilation of these abstractions,
//! we introduced a mechanism for registering DML-bodied built-in
//! functions." Each builtin is DML source compiled on first use and then
//! treated exactly like a user function — straight-line bodies (like
//! `lmDS`) get inlined into callers, the rest become function blocks.
//!
//! The registry covers the paper's running example (`steplm` → `lm` →
//! `lmDS`/`lmCG`, Figure 2) plus lifecycle builtins for scaling,
//! normalization, PCA, k-means, L2-SVM and data cleaning (§3.2): impute by
//! mean, median or mode and apply the learned rules, and flag or winsorize
//! outliers by standard deviation or IQR. Cleaning runs on the engine's one
//! path, so its column statistics get CSE, fusion, lineage reuse and
//! federated aggregates like any script. Builtins with a native kernel are
//! rows of the [`runtime`] table instead.

pub mod runtime;

use crate::parser::{parse_program, Program};
use sysds_common::Result;

/// Every registered DML-bodied builtin with its source, in registration
/// order.
pub const SOURCES: &[(&str, &str)] = &[
    // ---- the paper's Figure 2 stack ------------------------------------
    ("lmDS", LM_DS),
    ("lmCG", LM_CG),
    ("lm", LM),
    ("steplm", STEPLM),
    ("lmPredict", LM_PREDICT),
    // ---- lifecycle builtins --------------------------------------------
    ("scale", SCALE),
    ("normalize", NORMALIZE),
    ("pca", PCA),
    ("l2svm", L2SVM),
    ("kmeans", KMEANS),
    ("mse", MSE),
    ("cvLM", CV_LM),
    ("gridSearchLM", GRID_SEARCH_LM),
    ("logisticReg", LOGISTIC_REG),
    // ---- data cleaning (paper §3.2) ------------------------------------
    ("imputeByMean", IMPUTE_BY_MEAN),
    ("imputeByMedian", IMPUTE_BY_MEDIAN),
    ("imputeByMode", IMPUTE_BY_MODE),
    ("imputeApply", IMPUTE_APPLY),
    ("outlierBySd", OUTLIER_BY_SD),
    ("outlierByIQR", OUTLIER_BY_IQR),
    ("winsorizeBySd", WINSORIZE_BY_SD),
    ("winsorizeByIQR", WINSORIZE_BY_IQR),
    ("boundsBySd", BOUNDS_BY_SD),
    ("boundsByIQR", BOUNDS_BY_IQR),
    ("observedCounts", OBSERVED_COUNTS),
    ("sortObserved", SORT_OBSERVED),
];

/// DML source of a builtin, or `None` if unknown.
pub fn builtin_source(name: &str) -> Option<&'static str> {
    SOURCES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Builtins the conformance fuzzer may call on arbitrary generated inputs.
///
/// These are closed-form and numerically continuous in their inputs, so any
/// well-conditioned random matrix is a valid argument and results stay
/// comparable across optimizer configurations at tight tolerances. The
/// iterative builtins (lmCG, kmeans, l2svm, logisticReg, steplm) and the
/// selection wrappers over them are excluded: early-exit thresholds turn
/// last-ULP differences into different iteration counts, which the
/// differential oracle would misreport as plan divergence.
pub const FUZZ_SAFE: &[&str] = &["scale", "normalize", "mse", "lmPredict"];

/// Resolve a builtin into a parsed program (the registration hook passed
/// to the compiler).
pub fn resolve(name: &str) -> Option<Program> {
    let src = builtin_source(name)?;
    Some(parse_program(src).expect("builtin sources are well-formed"))
}

/// Parse-check every registered builtin (used by tests).
pub fn check_all() -> Result<usize> {
    for (_, src) in SOURCES {
        parse_program(src)?;
    }
    Ok(SOURCES.len())
}

/// Direct-solve linear regression (paper Figure 2, `m_lmDS`): solves the
/// regularized normal equations. Straight-line, so it inlines into callers
/// and its `t(X)%*%X` participates in cross-call CSE and lineage reuse.
const LM_DS: &str = r#"
lmDS = function(matrix[double] X, matrix[double] y, double reg = 0.0000001)
    return (matrix[double] B) {
  l = matrix(reg, rows=ncol(X), cols=1)
  A = t(X) %*% X + diag(l)
  b = t(X) %*% y
  B = solve(A, b)
}
"#;

/// Conjugate-gradient linear regression (paper Figure 2, `lmCG`), used for
/// wide feature matrices where forming the Gram matrix is too expensive.
const LM_CG: &str = r#"
lmCG = function(matrix[double] X, matrix[double] y, double reg = 0.0000001,
                double tol = 0.0000001, int maxi = 0)
    return (matrix[double] B) {
  r = -(t(X) %*% y)
  p = -r
  B = matrix(0, rows=ncol(X), cols=1)
  norm_r2 = sum(r * r)
  maxiter = ifelse(maxi > 0, maxi, ncol(X))
  i = 0
  while (i < maxiter & norm_r2 > tol * tol) {
    q = t(X) %*% (X %*% p) + reg * p
    alpha = norm_r2 / as.scalar(t(p) %*% q)
    B = B + alpha * p
    r = r + alpha * q
    old_norm_r2 = norm_r2
    norm_r2 = sum(r * r)
    p = -r + (norm_r2 / old_norm_r2) * p
    i = i + 1
  }
}
"#;

/// Dispatching linear regression (paper Figure 2, `m_lm`): direct solve
/// for narrow data, conjugate gradient beyond 1024 features.
const LM: &str = r#"
lm = function(matrix[double] X, matrix[double] y, double reg = 0.0000001,
              double tol = 0.0000001, int maxi = 0)
    return (matrix[double] B) {
  if (ncol(X) > 1024) {
    B = lmCG(X=X, y=y, reg=reg, tol=tol, maxi=maxi)
  } else {
    B = lmDS(X=X, y=y, reg=reg)
  }
}
"#;

/// Scoring helper.
const LM_PREDICT: &str = r#"
lmPredict = function(matrix[double] X, matrix[double] B)
    return (matrix[double] yhat) {
  yhat = X %*% B
}
"#;

/// Mean squared error.
const MSE: &str = r#"
mse = function(matrix[double] yhat, matrix[double] y)
    return (double err) {
  d = yhat - y
  err = sum(d * d) / nrow(y)
}
"#;

/// Stepwise linear regression (paper Example 1): greedy forward feature
/// selection by AIC, evaluating candidate features in a `parfor` and
/// training each what-if model via `lmDS` over `cbind(Xg, X[,j])` — the
/// exact pattern the partial-reuse compensation plans accelerate.
const STEPLM: &str = r#"
steplm = function(matrix[double] X, matrix[double] y, double reg = 0.000001,
                  int max_feat = 0)
    return (matrix[double] B, matrix[double] S) {
  n = nrow(X)
  m = ncol(X)
  limit = ifelse(max_feat > 0, max_feat, m)
  selected = matrix(0, rows=1, cols=m)
  Xg = matrix(1, rows=n, cols=1)
  B0 = lmDS(X=Xg, y=y, reg=reg)
  r0 = y - Xg %*% B0
  best_aic = n * log(sum(r0 * r0) / n) + 2
  continue = TRUE
  while (continue & sum(selected) < limit) {
    errs = matrix(-1, rows=1, cols=m)
    parfor (j in 1:m) {
      if (as.scalar(selected[1, j]) == 0) {
        Xi = cbind(Xg, X[, j])
        Bi = lmDS(X=Xi, y=y, reg=reg)
        ri = y - Xi %*% Bi
        errs[1, j] = sum(ri * ri)
      }
    }
    best_j = 0
    best_new_aic = best_aic
    for (j in 1:m) {
      e = as.scalar(errs[1, j])
      if (e >= 0) {
        k = sum(selected) + 2
        aic = n * log(e / n) + 2 * k
        if (aic < best_new_aic) {
          best_new_aic = aic
          best_j = j
        }
      }
    }
    if (best_j > 0) {
      selected[1, best_j] = 1
      Xg = cbind(Xg, X[, best_j])
      best_aic = best_new_aic
    } else {
      continue = FALSE
    }
  }
  B = lmDS(X=Xg, y=y, reg=reg)
  S = selected
}
"#;

/// Z-score standardization (column-wise), with zero-variance guard.
const SCALE: &str = r#"
scale = function(matrix[double] X, boolean center = TRUE, boolean doscale = TRUE)
    return (matrix[double] Y) {
  Y = X
  if (center) {
    Y = Y - colMeans(Y)
  }
  if (doscale) {
    csd = colSds(X)
    csd = csd + (csd == 0)
    Y = Y / csd
  }
}
"#;

/// Min-max normalization to [0, 1] per column (constant columns map to 0).
const NORMALIZE: &str = r#"
normalize = function(matrix[double] X)
    return (matrix[double] Y) {
  cmin = colMins(X)
  cmax = colMaxs(X)
  rng = cmax - cmin
  rng = rng + (rng == 0)
  Y = (X - cmin) / rng
}
"#;

/// PCA via power iteration with deflation (no eigen-decomposition
/// primitive needed; deterministic under the given seed).
const PCA: &str = r#"
pca = function(matrix[double] X, int k = 2, int iter = 100, int seed = 42)
    return (matrix[double] Xr, matrix[double] W) {
  Xc = X - colMeans(X)
  C = (t(Xc) %*% Xc) / (nrow(X) - 1)
  m = ncol(X)
  W = matrix(0, rows=m, cols=k)
  Cd = C
  for (c in 1:k) {
    v = rand(rows=m, cols=1, min=-1, max=1, seed=seed + c)
    for (i in 1:iter) {
      v = Cd %*% v
      v = v / sqrt(sum(v * v))
    }
    lambda = as.scalar(t(v) %*% Cd %*% v)
    W[, c] = v
    Cd = Cd - lambda * (v %*% t(v))
  }
  Xr = Xc %*% W
}
"#;

/// L2-regularized squared-hinge SVM via gradient descent; labels in {-1,+1}.
const L2SVM: &str = r#"
l2svm = function(matrix[double] X, matrix[double] y, double reg = 1.0,
                 double step = 0.01, int maxi = 100)
    return (matrix[double] w) {
  w = matrix(0, rows=ncol(X), cols=1)
  for (i in 1:maxi) {
    margin = 1 - y * (X %*% w)
    active = margin > 0
    g = t(X) %*% (-2 * (y * (margin * active))) + 2 * reg * w
    w = w - step * g
  }
}
"#;

/// K-fold cross-validation of `lmDS` (model validation, paper Figure 1):
/// contiguous folds, mean per-fold MSE.
const CV_LM: &str = r#"
cvLM = function(matrix[double] X, matrix[double] y, int folds = 5, double reg = 0.001)
    return (double err) {
  n = nrow(X)
  fs = floor(n / folds)
  err = 0
  for (f in 1:folds) {
    lo = (f - 1) * fs + 1
    hi = f * fs
    Xte = X[lo:hi, ]
    yte = y[lo:hi, ]
    if (f == 1) {
      Xtr = X[(hi + 1):n, ]
      ytr = y[(hi + 1):n, ]
    } else if (f == folds) {
      Xtr = X[1:(lo - 1), ]
      ytr = y[1:(lo - 1), ]
    } else {
      Xtr = rbind(X[1:(lo - 1), ], X[(hi + 1):n, ])
      ytr = rbind(y[1:(lo - 1), ], y[(hi + 1):n, ])
    }
    B = lmDS(X=Xtr, y=ytr, reg=reg)
    r = yte - Xte %*% B
    err = err + sum(r * r) / nrow(yte)
  }
  err = err / folds
}
"#;

/// Hyper-parameter grid search over λ for `lmDS` (model selection, paper
/// Figure 1): holdout split, parfor over candidates, refit on all data
/// with the winner. The per-candidate trainings share `t(Xtr)%*%Xtr`
/// through the lineage cache when reuse is enabled.
const GRID_SEARCH_LM: &str = r#"
gridSearchLM = function(matrix[double] X, matrix[double] y, matrix[double] lambdas)
    return (matrix[double] B, double best) {
  n = nrow(X)
  ntr = floor(0.8 * n)
  Xtr = X[1:ntr, ]
  ytr = y[1:ntr, ]
  Xte = X[(ntr + 1):n, ]
  yte = y[(ntr + 1):n, ]
  k = nrow(lambdas)
  errs = matrix(0, rows=k, cols=1)
  parfor (i in 1:k) {
    reg = as.scalar(lambdas[i, 1])
    Bi = lmDS(X=Xtr, y=ytr, reg=reg)
    r = yte - Xte %*% Bi
    errs[i, 1] = sum(r * r)
  }
  best_i = as.scalar(rowIndexMax(-t(errs)))
  best = as.scalar(lambdas[best_i, 1])
  B = lmDS(X=X, y=y, reg=best)
}
"#;

/// Binary logistic regression via gradient descent; labels in {0, 1}.
const LOGISTIC_REG: &str = r#"
logisticReg = function(matrix[double] X, matrix[double] y, double step = 1.0,
                       int maxi = 200, double reg = 0.001)
    return (matrix[double] w) {
  w = matrix(0, rows=ncol(X), cols=1)
  for (i in 1:maxi) {
    p = sigmoid(X %*% w)
    g = t(X) %*% (p - y) / nrow(X) + reg * w
    w = w - step * g
  }
}
"#;

/// Lloyd's k-means with squared-Euclidean distances; first-k-rows init.
const KMEANS: &str = r#"
kmeans = function(matrix[double] X, int k = 3, int maxi = 20)
    return (matrix[double] C, matrix[double] labels) {
  C = X[1:k, ]
  labels = matrix(0, rows=nrow(X), cols=1)
  for (it in 1:maxi) {
    D = -2 * (X %*% t(C)) + t(rowSums(C * C))
    labels = rowIndexMax(-D)
    for (c in 1:k) {
      mask = labels == c
      cnt = sum(mask)
      if (cnt > 0) {
        C[c, ] = colSums(X * mask) / cnt
      }
    }
  }
}
"#;

// ---- data cleaning -----------------------------------------------------
//
// NaN is the only missing value: `X == X` masks the observed cells, and
// ±Inf counts as observed. Statistics are per column over observed cells
// only; rules are 1 x ncol rows, and NaN cells are never flagged or
// clamped.

/// Per-column counts of observed cells; stops when a column has fewer than
/// `least` (1 for imputation, 2 for outlier bounds).
const OBSERVED_COUNTS: &str = r#"
observedCounts = function(matrix[double] X, int least) return (matrix[double] n) {
  n = colSums(X == X)
  if (min(n) < least) {
    if (least == 1) {
      stop("column " + as.scalar(rowIndexMax(n < 1)) + " has no observed values")
    }
    stop("outlier bounds need at least two observed values")
  }
}
"#;

/// The observed cells of a column, sorted ascending (NaN sorts last as
/// +Inf and is cut off).
const SORT_OBSERVED: &str = r#"
sortObserved = function(matrix[double] x) return (matrix[double] s) {
  s = order(target=replace(target=x, pattern=0/0, replacement=1/0))
  s = s[1:sum(x == x), ]
}
"#;

/// Fill the NaN cells of each column with that column's rule; observed
/// cells, ±Inf included, pass through; the rules row broadcasts down `X`.
const IMPUTE_APPLY: &str = r#"
imputeApply = function(matrix[double] X, matrix[double] rules) return (matrix[double] Y) {
  Y = ifelse(X == X, X, rules)
}
"#;

/// Mean imputation; `rules` holds the per-column means.
const IMPUTE_BY_MEAN: &str = r#"
imputeByMean = function(matrix[double] X) return (matrix[double] Y, matrix[double] rules) {
  n = observedCounts(X=X, least=1)
  rules = colSums(replace(target=X, pattern=0/0, replacement=0)) / n
  Y = imputeApply(X=X, rules=rules)
}
"#;

/// Median imputation (the interpolating median of `median`).
const IMPUTE_BY_MEDIAN: &str = r#"
imputeByMedian = function(matrix[double] X) return (matrix[double] Y, matrix[double] rules) {
  n = observedCounts(X=X, least=1)
  rules = matrix(0, rows=1, cols=ncol(X))
  for (j in 1:ncol(X)) {
    rules[1, j] = median(sortObserved(X[, j]))
  }
  Y = imputeApply(X=X, rules=rules)
}
"#;

/// Mode imputation: the most frequent value, a tie going to the smaller
/// one. Runs of equal sorted values are numbered, counted with `table`,
/// and the first longest run wins.
const IMPUTE_BY_MODE: &str = r#"
imputeByMode = function(matrix[double] X) return (matrix[double] Y, matrix[double] rules) {
  n = observedCounts(X=X, least=1)
  rules = matrix(0, rows=1, cols=ncol(X))
  for (j in 1:ncol(X)) {
    s = sortObserved(X[, j])
    k = nrow(s)
    prev = rbind(s[1, ], s)
    c = table(cumsum(s != prev[1:k, ]) + 1, matrix(1, rows=k, cols=1))
    ends = cumsum(c)
    rules[1, j] = s[as.scalar(ends[as.scalar(rowIndexMax(t(c))), 1]), 1]
  }
  Y = imputeApply(X=X, rules=rules)
}
"#;

/// Per-column bounds `mean ± k * sd`, with the sample sd (n - 1).
const BOUNDS_BY_SD: &str = r#"
boundsBySd = function(matrix[double] X, double k) return (matrix[double] lo, matrix[double] hi) {
  n = observedCounts(X=X, least=2)
  mu = colSums(replace(target=X, pattern=0/0, replacement=0)) / n
  sd = sqrt(colSums(ifelse(X == X, X - mu, 0) ^ 2) / (n - 1))
  lo = mu - k * sd
  hi = mu + k * sd
}
"#;

/// Per-column bounds `[Q1 - k * IQR, Q3 + k * IQR]` (quartiles as `quantile`).
const BOUNDS_BY_IQR: &str = r#"
boundsByIQR = function(matrix[double] X, double k) return (matrix[double] lo, matrix[double] hi) {
  n = observedCounts(X=X, least=2)
  q1 = matrix(0, rows=1, cols=ncol(X))
  q3 = q1
  for (j in 1:ncol(X)) {
    s = sortObserved(X[, j])
    q1[1, j] = quantile(s, 0.25)
    q3[1, j] = quantile(s, 0.75)
  }
  lo = q1 - k * (q3 - q1)
  hi = q3 + k * (q3 - q1)
}
"#;

/// 0/1 indicator of the cells outside `boundsBySd`.
const OUTLIER_BY_SD: &str = r#"
outlierBySd = function(matrix[double] X, double k) return (matrix[double] O) {
  [lo, hi] = boundsBySd(X=X, k=k)
  O = (X < lo) | (X > hi)
}
"#;

/// 0/1 indicator of the cells outside `boundsByIQR`.
const OUTLIER_BY_IQR: &str = r#"
outlierByIQR = function(matrix[double] X, double k) return (matrix[double] O) {
  [lo, hi] = boundsByIQR(X=X, k=k)
  O = (X < lo) | (X > hi)
}
"#;

/// Clamp each column into its `boundsBySd`.
const WINSORIZE_BY_SD: &str = r#"
winsorizeBySd = function(matrix[double] X, double k) return (matrix[double] Y) {
  [lo, hi] = boundsBySd(X=X, k=k)
  Y = ifelse(X == X, min(max(X, lo), hi), X)
}
"#;

/// Clamp each column into its `boundsByIQR`.
const WINSORIZE_BY_IQR: &str = r#"
winsorizeByIQR = function(matrix[double] X, double k) return (matrix[double] Y) {
  [lo, hi] = boundsByIQR(X=X, k=k)
  Y = ifelse(X == X, min(max(X, lo), hi), X)
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_parse() {
        assert_eq!(check_all().unwrap(), 26);
    }

    #[test]
    fn resolve_known_and_unknown() {
        assert!(resolve("lmDS").is_some());
        assert!(resolve("steplm").is_some());
        assert!(resolve("does_not_exist").is_none());
    }

    #[test]
    fn lmds_is_straight_line() {
        let p = resolve("lmDS").unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert!(f.body.iter().all(|s| matches!(
            s,
            crate::parser::Stmt::Assign { .. } | crate::parser::Stmt::IndexAssign { .. }
        )));
    }

    #[test]
    fn steplm_declares_two_outputs() {
        let p = resolve("steplm").unwrap();
        assert_eq!(
            p.functions[0].outputs,
            vec!["B".to_string(), "S".to_string()]
        );
    }

    // ---- data cleaning ---------------------------------------------------

    use crate::api::{ScriptOutputs, SystemDS};
    use crate::Data;
    use sysds_common::{EngineConfig, SysDsError};
    use sysds_tensor::Matrix;

    const NAN: f64 = f64::NAN;

    /// Run `script` with `X` bound to `x` and read back `outputs`.
    fn run(script: &str, x: Matrix, outputs: &[&str]) -> Result<ScriptOutputs> {
        let config = EngineConfig {
            spill_dir: sysds_common::testing::unique_temp_dir("sysds-builtin-tests"),
            ..EngineConfig::default()
        };
        let mut s = SystemDS::with_config(config)?;
        s.execute(script, &[("X", Data::from_matrix(x))], outputs)
    }

    fn column(values: &[f64]) -> Matrix {
        Matrix::from_vec(values.len(), 1, values.to_vec()).unwrap()
    }

    fn with_nans() -> Matrix {
        Matrix::from_rows(&[&[1.0, 10.0], &[NAN, 20.0], &[3.0, NAN], &[5.0, 30.0]]).unwrap()
    }

    /// The message of a `stop()` error.
    fn stop_message(r: Result<ScriptOutputs>) -> String {
        match r {
            Err(SysDsError::Stop(msg)) => msg,
            other => panic!("expected a stop error, got {other:?}"),
        }
    }

    #[test]
    fn impute_mean() {
        let out = run("[Y, R] = imputeByMean(X)", with_nans(), &["Y", "R"]).unwrap();
        assert_eq!(out.matrix("R").unwrap().to_vec(), vec![3.0, 20.0]);
        let m = out.matrix("Y").unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(2, 1), 20.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn impute_median_and_mode() {
        let script = "
            [Y1, med] = imputeByMedian(X)
            [Y2, mode] = imputeByMode(X)
            C = replace(target=X, pattern=0/0, replacement=-1)
        ";
        let m = column(&[1.0, 2.0, 2.0, 9.0, NAN]);
        let out = run(script, m, &["med", "mode", "C"]).unwrap();
        assert_eq!(out.matrix("med").unwrap().to_vec(), vec![2.0]);
        assert_eq!(out.matrix("mode").unwrap().to_vec(), vec![2.0]);
        assert_eq!(out.matrix("C").unwrap().get(4, 0), -1.0);
    }

    #[test]
    fn impute_all_missing_column_fails() {
        let m = Matrix::from_rows(&[&[1.0, NAN], &[2.0, NAN]]).unwrap();
        for method in ["imputeByMean", "imputeByMedian", "imputeByMode"] {
            let r = run(&format!("[Y, R] = {method}(X)"), m.clone(), &["Y"]);
            assert_eq!(stop_message(r), "column 2 has no observed values");
        }
        // but constant fill works
        let c = "Y = replace(target=X, pattern=0/0, replacement=7)";
        assert_eq!(
            run(c, m, &["Y"]).unwrap().matrix("Y").unwrap().get(1, 1),
            7.0
        );
    }

    #[test]
    fn apply_impute_reuses_rules() {
        let script = "
            [Y, R] = imputeByMean(X)
            T = imputeApply(X=matrix(0/0, rows=1, cols=2), rules=R)
        ";
        let cleaned = run(script, with_nans(), &["T"])
            .unwrap()
            .matrix("T")
            .unwrap();
        assert_eq!(cleaned.to_vec(), vec![3.0, 20.0]);
    }

    #[test]
    fn impute_apply_keeps_infinities() {
        let m = column(&[f64::INFINITY, NAN, f64::NEG_INFINITY]);
        let script = "Y = imputeApply(X, matrix(5, rows=1, cols=1))";
        let y = run(script, m, &["Y"]).unwrap().matrix("Y").unwrap();
        assert_eq!(y.to_vec(), vec![f64::INFINITY, 5.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn median_of_an_even_count_interpolates() {
        let m = column(&[4.0, NAN, 1.0, 3.0, 2.0]);
        let out = run("[Y, R] = imputeByMedian(X)", m, &["Y", "R"]).unwrap();
        assert_eq!(out.matrix("R").unwrap().to_vec(), vec![2.5]);
        assert_eq!(out.matrix("Y").unwrap().get(1, 0), 2.5);
    }

    #[test]
    fn mode_tie_goes_to_the_smaller_value() {
        let m = Matrix::from_rows(&[
            &[3.0, 7.0],
            &[1.0, NAN],
            &[3.0, 7.0],
            &[1.0, 8.0],
            &[2.0, 9.0],
        ])
        .unwrap();
        let out = run("[Y, R] = imputeByMode(X)", m, &["R"]).unwrap();
        assert_eq!(out.matrix("R").unwrap().to_vec(), vec![1.0, 7.0]);
    }

    #[test]
    fn zscore_outliers() {
        let m = column(&[1.0, 1.1, 0.9, 1.0, 1.05, 100.0]);
        let o = run("O = outlierBySd(X, 2.0)", m, &["O"])
            .unwrap()
            .matrix("O")
            .unwrap();
        assert_eq!(o.get(5, 0), 1.0);
        assert_eq!(o.get(0, 0), 0.0);
    }

    #[test]
    fn iqr_outliers() {
        let m = column(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]);
        let o = run("O = outlierByIQR(X, 1.5)", m, &["O"])
            .unwrap()
            .matrix("O")
            .unwrap();
        assert_eq!(o.get(7, 0), 1.0);
        let normal: f64 = (0..7).map(|i| o.get(i, 0)).sum();
        assert_eq!(normal, 0.0);
    }

    #[test]
    fn winsorize_clamps() {
        let script = "
            W = winsorizeBySd(X, 2.0)
            W2 = winsorizeBySd(W, 4.0)
        ";
        let m = column(&[1.0, 1.1, 0.9, 1.0, 1.05, 100.0]);
        let out = run(script, m, &["W", "W2"]).unwrap();
        let w = out.matrix("W").unwrap();
        assert!(w.get(5, 0) < 100.0);
        assert_eq!(w.get(0, 0), 1.0);
        // idempotent on already-clean data
        assert!(out.matrix("W2").unwrap().approx_eq(&w, 1e-12));
    }

    #[test]
    fn bounds_need_two_values() {
        let one = column(&[1.0]);
        let r = run("O = outlierBySd(X, 2.0)", one, &["O"]);
        assert_eq!(
            stop_message(r),
            "outlier bounds need at least two observed values"
        );
        // A second column with one observed cell fails every bounds rule.
        for method in [
            "outlierBySd",
            "outlierByIQR",
            "winsorizeBySd",
            "winsorizeByIQR",
        ] {
            let m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, NAN]]).unwrap();
            let r = run(&format!("O = {method}(X, 2.0)"), m, &["O"]);
            assert_eq!(
                stop_message(r),
                "outlier bounds need at least two observed values"
            );
        }
    }

    #[test]
    fn nan_cells_are_neither_flagged_nor_clamped() {
        let script = "
            O1 = outlierBySd(X, 0.1)
            O2 = outlierByIQR(X, 0.1)
            W1 = winsorizeBySd(X, 0.1)
            W2 = winsorizeByIQR(X, 0.1)
        ";
        let m = column(&[1.0, NAN, 5.0, 9.0, -40.0, 2.0]);
        let out = run(script, m, &["O1", "O2", "W1", "W2"]).unwrap();
        for o in ["O1", "O2"] {
            let o = out.matrix(o).unwrap();
            assert_eq!(o.get(1, 0), 0.0);
            assert_eq!(o.get(4, 0), 1.0, "-40 lies outside both bounds");
        }
        for w in ["W1", "W2"] {
            let w = out.matrix(w).unwrap();
            assert!(w.get(1, 0).is_nan());
            assert!(w.get(4, 0) > -40.0);
        }
    }
}

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
//! normalization, PCA, k-means, and L2-SVM. Builtins with a native kernel
//! are rows of the [`runtime`] table instead.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_parse() {
        assert_eq!(check_all().unwrap(), 14);
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
}

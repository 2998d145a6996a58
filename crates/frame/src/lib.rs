//! Frames and feature transformations (paper §2.1 L4, §3.2).
//!
//! A [`Frame`] is a 2-D table with a per-column schema — the entry point of
//! the data-science lifecycle before data turns into matrices. This crate
//! provides:
//!
//! * [`frame`] — the `Frame` container with typed columns and schema
//!   detection;
//! * [`transform`] — `transformencode`-style feature encoders (recode,
//!   dummy-code, binning, pass-through) whose fitted state is exported as
//!   plain matrices/frames, keeping the system stateless ("consuming
//!   pre-trained models and rules as tensors themselves");
//! * [`clean`] — frame row cleaning: deduplication and dropping rows with
//!   missing values;
//! * [`link`] — schema alignment and fuzzy entity linking across frames
//!   (the paper's data-integration abstractions).
//!
//! Scaling, normalization, imputation, outlier detection and winsorizing
//! are DML-bodied builtins of the core crate (`scale`, `normalize`,
//! `imputeBy*`, `outlierBy*`, `winsorizeBy*`), not functions here.

#![deny(unsafe_code)]

pub mod clean;
pub mod frame;
pub mod link;
pub mod transform;

pub use frame::{Frame, FrameColumn};
pub use transform::{TransformEncoder, TransformSpec};

//! I/O: CSV (multi-threaded parse), MatrixMarket, the binary blocked
//! format, metadata files and CSV format options (paper §2.3, §3.2).
//!
//! The paper's Figure 5(a) observes that "multi-threaded I/O in SysDS yields
//! better performance than TF or Julia for a single model because
//! string-to-double parsing is compute-intensive" — [`csv::read_matrix`]
//! reproduces exactly that: threads own byte ranges of the file and parse
//! their lines straight into their own output rows.

pub mod binary;
pub mod csv;
pub mod descriptor;
pub mod format;
pub mod formats;
pub mod mtd;

pub use descriptor::FormatDescriptor;
pub use format::Format;
pub use mtd::Metadata;

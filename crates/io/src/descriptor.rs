//! Text-format options (paper §3.2).
//!
//! A [`FormatDescriptor`] names the delimiter, header flag, quote character
//! and missing-value tokens of a CSV-like file. The CSV reader and writer
//! take one; callers build it with [`FormatDescriptor::csv`] or
//! [`FormatDescriptor::tsv`] and the `with_*` builders.

/// A high-level description of an external text format.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatDescriptor {
    /// Field delimiter.
    pub delimiter: char,
    /// Whether the first row is a header.
    pub header: bool,
    /// Quote character stripped from field ends.
    pub quote: char,
    /// Tokens treated as missing values.
    pub na_values: Vec<String>,
}

impl FormatDescriptor {
    /// Standard comma-separated values, no header.
    pub fn csv() -> FormatDescriptor {
        FormatDescriptor {
            delimiter: ',',
            header: false,
            quote: '"',
            na_values: vec!["NA".into(), "NaN".into()],
        }
    }

    /// Tab-separated values.
    pub fn tsv() -> FormatDescriptor {
        FormatDescriptor {
            delimiter: '\t',
            ..FormatDescriptor::csv()
        }
    }

    /// Builder-style delimiter override.
    pub fn with_delimiter(mut self, d: char) -> Self {
        self.delimiter = d;
        self
    }

    /// Builder-style header flag.
    pub fn with_header(mut self, h: bool) -> Self {
        self.header = h;
        self
    }
}

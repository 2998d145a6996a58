//! Decimal number scanner of the CSV reader (Lemire, "Number Parsing at a
//! Gigabyte per Second", SPE 2021).
//!
//! The CSV reader's `Scanner` reads one delimited field straight from a line's
//! bytes: ASCII blanks, a number, ASCII blanks, then the delimiter or the
//! end of the line. Digits are accumulated 8 at a time (SWAR, over words
//! loaded by `binary::le_u64`). The value comes from Clinger's exact fast path
//! when the digits fit in 53 bits and the decimal exponent in ±22, and from
//! Eisel-Lemire otherwise, over a 128-bit power-of-five table that is
//! computed on first use.
//!
//! The scanner decides a field or hands it back, and every value it decides
//! equals `str::parse::<f64>` of the field's trimmed text bit for bit. It
//! hands back a field with anything outside that grammar (a quote, a
//! non-ASCII byte, `inf`/`nan` spellings, an empty field, an NA token), more
//! than 19 significant digits, an exponent past ±65536, or a product
//! Eisel-Lemire cannot round with certainty; callers parse those with
//! `str::parse`. [`parse_f64`] is that pair for a whole string.

use crate::binary::le_u64;
use std::num::ParseFloatError;
use std::sync::OnceLock;

/// The ASCII bytes `str::trim` strips: tab, LF, VT, FF, CR and space, as
/// bits of a mask over bytes below 64.
const ASCII_BLANKS: u64 = 1 << b'\t' | 1 << b'\n' | 1 << 0x0B | 1 << 0x0C | 1 << b'\r' | 1 << b' ';

/// Smallest and largest decimal exponent with a table entry; below and
/// above them every value of at most 19 digits is 0 or infinite.
const MIN_Q: i64 = -342;
const MAX_Q: i64 = 308;

/// `str::parse` drops exponent digits once the exponent reaches this, so
/// an exponent past it is handed back.
const MAX_EXPONENT: i64 = 0x10000;

/// 10^0..=10^22, each exact in an `f64`.
const POW10: [f64; 23] = {
    let mut t = [1.0; 23];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 10.0;
        k += 1;
    }
    t
};

/// Whether `b` can occur in a number the scanner reads.
pub(crate) fn in_number(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'+' | b'-' | b'e' | b'E')
}

/// A field scanner for one delimiter.
#[derive(Debug)]
pub(crate) struct Scanner {
    delimiter: u8,
    /// [`ASCII_BLANKS`] without the delimiter.
    blanks: u64,
}

impl Scanner {
    /// A scanner for fields that end at `delimiter`, which must be ASCII
    /// and no byte a number can contain.
    pub(crate) fn new(delimiter: u8) -> Scanner {
        debug_assert!(delimiter.is_ascii() && !in_number(delimiter));
        let own = if delimiter < 64 { 1 << delimiter } else { 0 };
        Scanner {
            delimiter,
            blanks: ASCII_BLANKS & !own,
        }
    }

    /// The field that starts at `bytes[i]`: its value and the index of its
    /// end (its delimiter, or `bytes.len()`), or `None` to hand it back.
    #[inline]
    pub(crate) fn field(&self, bytes: &[u8], i: usize) -> Option<(f64, usize)> {
        let (v, end) = number(bytes, self.skip_blanks(bytes, i))?;
        let end = self.skip_blanks(bytes, end);
        match bytes.get(end) {
            Some(&b) if b != self.delimiter => None,
            _ => Some((v, end)),
        }
    }

    #[inline]
    fn skip_blanks(&self, bytes: &[u8], mut i: usize) -> usize {
        while let Some(&b) = bytes.get(i) {
            if b >= 64 || self.blanks >> b & 1 == 0 {
                break;
            }
            i += 1;
        }
        i
    }
}

/// Parse `text` as `str::parse::<f64>` does, bit for bit: the scanner
/// decides what it can, `str::parse` the rest.
pub fn parse_f64(text: &str) -> Result<f64, ParseFloatError> {
    match number(text.as_bytes(), 0) {
        Some((v, end)) if end == text.len() => Ok(v),
        _ => text.parse(),
    }
}

/// The number that starts at `s[i]` (a sign, digits, `.`, digits, an
/// exponent) and the index just past it, or `None` to hand it back.
#[inline]
fn number(s: &[u8], mut i: usize) -> Option<(f64, usize)> {
    let negative = s.get(i) == Some(&b'-');
    if negative || s.get(i) == Some(&b'+') {
        i += 1;
    }
    let start = i;
    let mut w = 0u64;
    i = digits(s, i, &mut w);
    let mut n_digits = i - start;
    let mut q = 0i64;
    if s.get(i) == Some(&b'.') {
        i += 1;
        let frac = i;
        i = digits(s, i, &mut w);
        n_digits += i - frac;
        q = -((i - frac) as i64);
    }
    if n_digits == 0 {
        return None;
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        let negative_exp = s.get(i) == Some(&b'-');
        if negative_exp || s.get(i) == Some(&b'+') {
            i += 1;
        }
        let exp_start = i;
        let mut e = 0i64;
        while let Some(d) = s.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            if e >= MAX_EXPONENT {
                return None;
            }
            e = e * 10 + i64::from(d);
            i += 1;
        }
        if i == exp_start {
            return None;
        }
        q += if negative_exp { -e } else { e };
    }
    if n_digits > 19 {
        // Leading zeros (and the point between them) are not significant.
        let zeros = s[start..i]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if n_digits - zeros > 19 {
            return None;
        }
    }
    let v = if w <= 1 << 53 && (-22..=22).contains(&q) {
        // Clinger: both operands are exact, so one rounding is the only one.
        let f = w as f64;
        if q < 0 {
            f / POW10[q.unsigned_abs() as usize]
        } else {
            f * POW10[q as usize]
        }
    } else {
        eisel_lemire(w, q)?
    };
    Some((if negative { -v } else { v }, i))
}

/// Append the decimal digits at `s[i..]` to `w` (wrapping; the caller
/// counts digits) and return the index past them.
#[inline]
fn digits(s: &[u8], mut i: usize, w: &mut u64) -> usize {
    while let Some(word) = le_u64(&s[i..]) {
        if !eight_digits(word) {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(parse_eight(word));
        i += 8;
    }
    while let Some(d) = s.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    i
}

/// Whether all 8 bytes of a little-endian word are ASCII digits.
#[inline]
fn eight_digits(v: u64) -> bool {
    let above = v.wrapping_add(0x4646_4646_4646_4646);
    let below = v.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of 8 ASCII digits read as a little-endian word (first digit
/// in the low byte): pairs, then quads, then the whole, by multiplies.
#[inline]
fn parse_eight(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064; // 100 + (1000000 << 32)
    const MUL2: u64 = 0x0000_2710_0000_0001; // 1 + (10000 << 32)
    let v = v - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// `w * 10^q` rounded to nearest, ties to even, for `w` of at most 19
/// digits; `None` when the 128-bit product cannot decide the rounding.
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    if w == 0 || q < MIN_Q {
        return Some(0.0);
    }
    if q > MAX_Q {
        return Some(f64::INFINITY);
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let (hi5, lo5) = pow5_table()[(q - MIN_Q) as usize];
    let first = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    // 52 mantissa bits, the hidden bit, a rounding bit and a possible
    // leading zero leave 9 bits of slack; when they are all ones the low
    // word of the power decides.
    const SLACK: u64 = u64::MAX >> 55;
    if hi & SLACK == SLACK {
        let second = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second);
        if second > lo {
            hi += 1;
        }
    }
    // Adding the truncated rest may carry past the rounding point, except
    // where 5^q is exact in 128 bits or the tie cannot arise.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let mut m = hi >> (upper + 9);
    let mut p2 = power2(q as i32) + upper - lz as i32 + 1023;
    if p2 <= 0 {
        // Subnormal, or zero.
        if 1 - p2 >= 64 {
            return Some(0.0);
        }
        m >>= 1 - p2;
        m += m & 1;
        m >>= 1;
        // Rounding up to the smallest normal sets the exponent bit itself.
        return Some(f64::from_bits(m));
    }
    // An exact tie rounds to even.
    if lo <= 1 && (-4..=23).contains(&q) && m & 3 == 1 && m << (upper + 9) == hi {
        m &= !1;
    }
    m += m & 1;
    m >>= 1;
    if m >= 2 << 52 {
        m = 1 << 52;
        p2 += 1;
    }
    if p2 >= 0x7FF {
        return Some(f64::INFINITY);
    }
    Some(f64::from_bits((m & !(1 << 52)) | (p2 as u64) << 52))
}

/// floor(log2(10^q)) + 63, for |q| within the table.
fn power2(q: i32) -> i32 {
    (q.wrapping_mul(152_170 + 65_536) >> 16) + 63
}

/// `(hi, lo)` words of 5^q for q in `MIN_Q..=MAX_Q`, shifted so bit 127 is
/// set: truncated for q >= 0; for q < 0, the quotient 2^b / 5^-q plus one,
/// truncated to 128 bits, at the `b` of Lemire's table generator.
fn pow5_table() -> &'static [(u64, u64)] {
    static TABLE: OnceLock<Vec<(u64, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut neg = Vec::new();
        let mut pos = Vec::new();
        // 5^k as little-endian 64-bit limbs.
        let mut p = vec![1u64];
        for k in 0..=MIN_Q.unsigned_abs() as u32 {
            if i64::from(k) <= MAX_Q {
                pos.push(leading_bits(&p));
            }
            if k > 0 {
                neg.push(reciprocal_bits(&p, k <= 27));
            }
            let carry = p.iter_mut().fold(0u128, |carry, limb| {
                let v = u128::from(*limb) * 5 + carry;
                *limb = v as u64;
                v >> 64
            });
            if carry > 0 {
                p.push(carry as u64);
            }
        }
        neg.reverse();
        neg.into_iter()
            .chain(pos)
            .map(|v| ((v >> 64) as u64, v as u64))
            .collect()
    })
}

fn bit_len(p: &[u64]) -> usize {
    let top = p.last().expect("a number has a limb");
    64 * p.len() - top.leading_zeros() as usize
}

/// The 128 leading bits of `p`, truncated.
fn leading_bits(p: &[u64]) -> u128 {
    let bits = bit_len(p);
    if bits <= 128 {
        let v = p.iter().rev().fold(0u128, |v, &l| v << 64 | u128::from(l));
        return v << (128 - bits);
    }
    let s = bits - 128;
    let limb = |k: usize| u128::from(p.get(k).copied().unwrap_or(0));
    let (k, b) = (s / 64, s % 64);
    let low = limb(k) | limb(k + 1) << 64;
    if b == 0 {
        low
    } else {
        low >> b | limb(k + 2) << (128 - b)
    }
}

/// floor(2^(z+127) / p), where `p` > 1 is odd and has `z` bits, by binary
/// long division, plus one when `near` (the table's q >= -27). For q < -27
/// the generator divides 2^(2z+128) and adds one before truncating; that one
/// never carries into the 128 bits kept, so the plain quotient is the entry.
fn reciprocal_bits(p: &[u64], near: bool) -> u128 {
    let z = bit_len(p);
    let n = p.len() + 1;
    let mut d = p.to_vec();
    d.resize(n, 0);
    // The remainder starts at 2^(z-1) < p.
    let mut r = vec![0u64; n];
    r[(z - 1) / 64] = 1 << ((z - 1) % 64);
    let quotient = (0..128).fold(0u128, |q, _| {
        let mut carry = 0;
        for limb in r.iter_mut() {
            let top = *limb >> 63;
            *limb = *limb << 1 | carry;
            carry = top;
        }
        let fits = r.iter().rev().cmp(d.iter().rev()).is_ge();
        if fits {
            let mut borrow = false;
            for (limb, &sub) in r.iter_mut().zip(&d) {
                let (v, b1) = limb.overflowing_sub(sub);
                let (v, b2) = v.overflowing_sub(u64::from(borrow));
                *limb = v;
                borrow = b1 || b2;
            }
        }
        q << 1 | u128::from(fits)
    });
    quotient + u128::from(near)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_common::testing::Gen;

    /// The scanner's own verdict on a whole string: decided (and equal to
    /// `str::parse` bit for bit) or handed back.
    fn check(text: &str) -> bool {
        let expect = text.parse::<f64>();
        let got = parse_f64(text);
        assert_eq!(
            got.as_ref().map(|v| v.to_bits()).ok(),
            expect.as_ref().map(|v| v.to_bits()).ok(),
            "{text:?}: parse_f64 {got:?}, str::parse {expect:?}"
        );
        match number(text.as_bytes(), 0) {
            Some((v, end)) if end == text.len() => {
                let expect = expect.unwrap_or_else(|_| panic!("{text:?} decided but invalid"));
                assert_eq!(
                    v.to_bits(),
                    expect.to_bits(),
                    "{text:?}: {v:e} vs {expect:e}"
                );
                true
            }
            _ => false,
        }
    }

    #[test]
    fn table_anchors() {
        let t = pow5_table();
        assert_eq!(t.len(), (MAX_Q - MIN_Q + 1) as usize);
        assert_eq!(t[0], (0xeef4_53d6_923b_d65a, 0x113f_aa29_06a1_3b3f));
        assert_eq!(t[(-MIN_Q) as usize], (1 << 63, 0));
        // Either side of the q = -27 rounding switch, 5^-1 and 5^308.
        let at = |q: i64| t[(q - MIN_Q) as usize];
        assert_eq!(at(-28), (0xfd87_b5f2_8300_ca0d, 0x8bca_9d6e_1888_53fc));
        assert_eq!(at(-27), (0x9e74_d1b7_91e0_7e48, 0x775e_a264_cf55_347e));
        assert_eq!(at(-1), (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd));
        assert_eq!(at(308), (0x8e67_9c2f_5e44_ff8f, 0x570f_09ea_a7ea_7648));
        for q in 0..=27u32 {
            let exact = 5u64.pow(q);
            let entry = t[(i64::from(q) - MIN_Q) as usize];
            assert_eq!(entry, (exact << exact.leading_zeros(), 0), "5^{q}");
        }
        // Every entry is normalised.
        assert!(t.iter().all(|&(hi, _)| hi >> 63 == 1));
    }

    #[test]
    fn swar_reads_eight_digits_in_order() {
        let word = |s: &[u8; 8]| le_u64(s).unwrap();
        assert_eq!(parse_eight(word(b"12345678")), 12_345_678);
        assert_eq!(parse_eight(word(b"00000000")), 0);
        assert_eq!(parse_eight(word(b"99999999")), 99_999_999);
        assert!(eight_digits(word(b"01234567")));
        for bad in [b"1234567.", b"/1234567", b"1234:567", b"\x001234567"] {
            assert!(!eight_digits(word(bad)), "{bad:?}");
        }
    }

    #[test]
    fn fields_end_at_the_delimiter_or_hand_back() {
        let comma = Scanner::new(b',');
        let line = b" 1.5 ,\t-2e3,+.5,7.,1 2,\"3\",NA,,inf,9";
        let mut fields = Vec::new();
        let mut i = 0;
        while i <= line.len() {
            let end = i + line[i..]
                .iter()
                .position(|&b| b == b',')
                .unwrap_or(line.len() - i);
            fields.push(comma.field(line, i).map(|(v, e)| (v, e == end)));
            i = end + 1;
        }
        let want = [
            Some((1.5, true)),
            Some((-2000.0, true)),
            Some((0.5, true)),
            Some((7.0, true)),
            None,
            None,
            None,
            None,
            None,
            Some((9.0, true)),
        ];
        assert_eq!(fields, want);
        // A tab delimiter is no blank; a vertical tab is.
        let tab = Scanner::new(b'\t');
        assert_eq!(tab.field(b"\x0b4\x0c\t5", 0), Some((4.0, 3)));
        assert_eq!(tab.field(b"4 \t", 0), Some((4.0, 2)));
    }

    #[test]
    fn hands_back_what_it_cannot_decide() {
        for text in [
            "inf",
            "-infinity",
            "NaN",
            "nan",
            "",
            "-",
            "+",
            ".",
            "1e",
            "1e+",
            "e5",
            "1.2.3",
            "12345678901234567890",
            "1e700001",
            "0x10",
            "1_000",
            "١",
        ] {
            assert!(!check(text), "{text:?} must be handed back");
        }
        for text in [
            "0",
            "-0",
            "+0.0",
            "1.",
            ".5",
            "1E5",
            "1e-5",
            "00000000000000000000001",
            "0.000000000000000000000000000012345",
            "9007199254740993",
            "1e23",
            "5e-324",
            "2e-324",
            "2.4703282292062328e-324",
            "1.7976931348623157e308",
            "1.8e308",
            "1e-400",
            "1e400",
            "4.9406564584124654e-324",
            "2.2250738585072011e-308",
        ] {
            assert!(check(text), "{text:?} must be decided");
        }
        // Past 65536 `str::parse` drops exponent digits; such texts agree.
        check(&format!("0.{}1e70001", "0".repeat(70_000)));
        check(&format!("{}e-70001", "1".repeat(20)));
    }

    /// A text `str::parse` reads (or rejects), drawn from the shapes a CSV
    /// file holds and those that stress the rounding.
    fn number_text(g: &mut Gen) -> String {
        let sign = |g: &mut Gen| g.pick(&["", "", "-", "+"]).to_string();
        let finite = |g: &mut Gen| f64::from_bits(g.seed() % 0x7FF0_0000_0000_0000);
        match g.int(0..9u8) {
            0 => format!("{}{}", sign(g), finite(g)),
            1 => format!("{}{:e}", sign(g), finite(g)),
            2 => format!("{}", g.float(0.0..1.0)),
            3 => format!("{}{}", sign(g), g.int(0u64..1_000_000_000_000_000)),
            4 => {
                // 19 or more digits, some of them leading zeros.
                let n = g.int(19usize..=30);
                let all = g.string("0-9", n..=n);
                let cut = g.int(0..=n);
                let lead = "0".repeat(g.int(0usize..4));
                let e = g.int(-400i32..=400);
                format!("{}{lead}{}.{}e{e}", sign(g), &all[..cut], &all[cut..])
            }
            5 => {
                let n = g.int(1usize..=19);
                let e = g.int(-400i32..=400);
                format!("{}{}e{e}", sign(g), g.string("0-9", n..=n))
            }
            6 => {
                // Next to the subnormal edges and the largest finite value.
                let v = g.pick(&[f64::MIN_POSITIVE, 5e-324, f64::MAX, 1e-310, 2.5e-308]);
                let bits = v.to_bits() as i64 + g.int(-3i64..=3);
                format!(
                    "{}{:e}",
                    sign(g),
                    f64::from_bits(bits.clamp(0, 0x7FEF_FFFF_FFFF_FFFF) as u64)
                )
            }
            7 => {
                // Halfway to the next double: short texts near 2^53, long
                // ones anywhere.
                let exp = if g.bool() {
                    g.int(1070u64..=1090)
                } else {
                    g.int(0u64..0x7FF)
                };
                halfway(f64::from_bits(exp << 52 | g.seed() >> 12))
            }
            _ => g
                .pick(&["inf", "-inf", "+infinity", "NaN", "-nan", "Infinity"])
                .to_string(),
        }
    }

    /// The exact decimal text of the midpoint between `a` (finite, > 0) and
    /// the next double up.
    fn halfway(a: f64) -> String {
        let bits = a.to_bits();
        let (exp, frac) = ((bits >> 52) as i64, bits & ((1 << 52) - 1));
        let (m, e) = if exp == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, exp - 1075)
        };
        // a = m * 2^e, so the midpoint is (2m + 1) * 2^(e - 1), and
        // 2^-k = 5^k * 10^-k.
        let (factor, k, e10) = if e >= 1 {
            (2, e - 1, 0)
        } else {
            (5, 1 - e, e - 1)
        };
        let mut n = vec![2 * m + 1];
        for _ in 0..k {
            let carry = n.iter_mut().fold(0u128, |c, l| {
                let v = u128::from(*l) * factor + c;
                *l = v as u64;
                v >> 64
            });
            if carry > 0 {
                n.push(carry as u64);
            }
        }
        let mut out = Vec::new();
        while n.iter().any(|&l| l != 0) {
            let rem = n.iter_mut().rev().fold(0u128, |r, l| {
                let v = r << 64 | u128::from(*l);
                *l = (v / 10) as u64;
                v % 10
            });
            out.push(b'0' + rem as u8);
        }
        out.reverse();
        format!("{}e{e10}", String::from_utf8(out).unwrap())
    }

    #[test]
    fn decides_nearly_every_shortest_text() {
        let mut g = Gen::new(7, 1.0);
        let texts: Vec<String> = (0..20_000)
            .map(|k| match k % 2 {
                0 => format!("{:e}", f64::from_bits(g.seed() % 0x7FF0_0000_0000_0000)),
                _ => format!("{}", g.float(0.0..1.0)),
            })
            .collect();
        let decided = texts.iter().filter(|t| check(t)).count();
        assert!(
            decided * 1000 >= texts.len() * 999,
            "{decided} of {}",
            texts.len()
        );
    }

    sysds_common::property! {
        #![cases(4096)]
        g;

        #[test]
        fn scanner_equals_std_parse_bit_for_bit(text in number_text(g)) {
            check(&text);
        }
    }
}

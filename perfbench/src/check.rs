//! Bit-exact answer checking: a served score equals the offline score
//! only if every bit agrees (the wire protocol round-trips `f64`
//! losslessly; non-finite scores travel as `null` and come back as NaN).

/// Whether two scores are the same answer.
pub fn same_score(expected: f64, got: f64) -> bool {
    expected.to_bits() == got.to_bits() || (expected.is_nan() && got.is_nan())
}

/// Compares a served score vector with the offline one.
///
/// # Errors
///
/// A message naming the first differing position, or the length
/// mismatch.
pub fn check_scores(expected: &[f64], got: &[f64]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "expected {} scores, got {}",
            expected.len(),
            got.len()
        ));
    }
    match expected
        .iter()
        .zip(got)
        .position(|(&e, &g)| !same_score(e, g))
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "score {i}: expected {:?} ({:#018x}), got {:?} ({:#018x})",
            expected[i],
            expected[i].to_bits(),
            got[i],
            got[i].to_bits()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_low_bit_is_a_mismatch() {
        let expected = [0.294_736_842_105_263_13, 112.0, 0.969_920_773_465_825_2];
        assert!(check_scores(&expected, &expected).is_ok());
        for i in 0..expected.len() {
            for bit in [0u32, 17, 52, 63] {
                let mut got = expected;
                got[i] = f64::from_bits(got[i].to_bits() ^ (1u64 << bit));
                let err = check_scores(&expected, &got).expect_err("flipped bit must be caught");
                assert!(err.starts_with(&format!("score {i}:")), "{err}");
            }
        }
    }

    #[test]
    fn lengths_and_nan_are_handled() {
        assert!(check_scores(&[1.0], &[1.0, 2.0]).is_err());
        assert!(check_scores(&[f64::NAN], &[f64::NAN]).is_ok());
        assert!(check_scores(&[0.0], &[-0.0]).is_err());
    }
}

use std::fmt;

/// An architectural register identifier.
///
/// The simulated machine has 32 integer registers (`r0`–`r31`) and 32
/// floating-point registers (`f0`–`f31`). Internally both spaces share a
/// flat index range `0..64` so that scoreboards can use a single array.
///
/// `r0` is hardwired to zero (MIPS convention) and never participates in
/// dependence tracking; see [`Reg::is_zero`].
///
/// # Examples
///
/// ```
/// use interleave_isa::Reg;
///
/// let r4 = Reg::int(4);
/// let f2 = Reg::fp(2);
/// assert!(!r4.is_fp());
/// assert!(f2.is_fp());
/// assert_eq!(r4.index(), 4);
/// assert_eq!(f2.index(), 34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Total number of architectural registers (integer + FP).
    pub const COUNT: usize = 64;

    /// The hardwired-zero integer register `r0`.
    pub const ZERO: Reg = Reg(0);

    /// Creates an integer register `r{n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register index {n} out of range");
        Reg(n)
    }

    /// Creates a floating-point register `f{n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn fp(n: u8) -> Reg {
        assert!(n < 32, "fp register index {n} out of range");
        Reg(32 + n)
    }

    /// Creates a register from its flat index in `0..64`.
    ///
    /// Indices `0..32` are integer registers; `32..64` are FP registers.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    pub fn from_index(index: usize) -> Reg {
        assert!(index < Self::COUNT, "register index {index} out of range");
        Reg(index as u8)
    }

    /// Flat index of this register in `0..64`.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Whether this is a floating-point register.
    #[inline]
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// Whether this is the hardwired-zero register `r0`.
    ///
    /// Reads of `r0` are always ready and writes to it are discarded, so the
    /// scoreboard skips it entirely.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The register number within its space (`0..32`).
    pub fn number(self) -> u8 {
        self.0 % 32
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.number())
        } else {
            write!(f, "r{}", self.number())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_spaces_are_disjoint() {
        for n in 0..32 {
            assert!(!Reg::int(n).is_fp());
            assert!(Reg::fp(n).is_fp());
            assert_ne!(Reg::int(n).index(), Reg::fp(n).index());
        }
    }

    #[test]
    fn flat_index_roundtrip() {
        for i in 0..Reg::COUNT {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::int(1).is_zero());
        // f0 is a real register, not hardwired zero.
        assert!(!Reg::fp(0).is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg::int(7).to_string(), "r7");
        assert_eq!(Reg::fp(7).to_string(), "f7");
    }

    #[test]
    fn number_within_space() {
        assert_eq!(Reg::int(31).number(), 31);
        assert_eq!(Reg::fp(31).number(), 31);
        assert_eq!(Reg::fp(0).number(), 0);
    }

    #[test]
    #[should_panic]
    fn int_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic]
    fn fp_out_of_range_panics() {
        let _ = Reg::fp(32);
    }

    #[test]
    #[should_panic]
    fn from_index_out_of_range_panics() {
        let _ = Reg::from_index(64);
    }
}

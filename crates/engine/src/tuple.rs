//! Fixed-arity row values passed between operators.
//!
//! Rows are small (`i64` columns, arity ≤ [`MAX_COLS`]) and `Copy`, so the
//! Volcano `next()` path allocates nothing. The planner guarantees plans
//! project only the columns downstream operators need.

/// Maximum number of columns an intermediate tuple may carry.
pub const MAX_COLS: usize = 24;

/// A row of up to [`MAX_COLS`] `i64` values.
#[derive(Clone, Copy, Debug)]
pub struct Tuple {
    vals: [i64; MAX_COLS],
    len: u8,
}

impl Tuple {
    /// Empty tuple.
    #[inline]
    pub fn new() -> Self {
        Tuple { vals: [0; MAX_COLS], len: 0 }
    }

    /// Column values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// Value of column `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len as usize);
        self.vals[i]
    }

    /// Append a column.
    ///
    /// # Panics
    /// Panics if the tuple is full.
    #[inline]
    pub fn push(&mut self, v: i64) {
        assert!((self.len as usize) < MAX_COLS, "tuple overflow");
        self.vals[self.len as usize] = v;
        self.len += 1;
    }

    /// Concatenation `self ++ other` (join output).
    #[inline]
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let total = self.len as usize + other.len as usize;
        assert!(total <= MAX_COLS, "join output arity {total} exceeds MAX_COLS");
        let mut t = *self;
        t.vals[self.len as usize..total].copy_from_slice(other.as_slice());
        t.len = total as u8;
        t
    }

    /// Logical width in bytes (8 per column).
    #[inline]
    pub fn width_bytes(&self) -> u64 {
        self.len as u64 * 8
    }
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::new()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Tuple {}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_slice(vals: &[i64]) -> Tuple {
        let mut t = Tuple::new();
        for &v in vals {
            t.push(v);
        }
        t
    }

    #[test]
    fn build_and_read() {
        let t = from_slice(&[1, -2, 3]);
        assert_eq!(t.as_slice().len(), 3);
        assert_eq!(t.get(1), -2);
        assert_eq!(t.as_slice(), &[1, -2, 3]);
        assert_eq!(t.width_bytes(), 24);
    }

    #[test]
    fn concat_joins() {
        let a = from_slice(&[1, 2]);
        let b = from_slice(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn push_appends() {
        let mut t = Tuple::new();
        t.push(9);
        t.push(8);
        assert_eq!(t.as_slice(), &[9, 8]);
    }

    #[test]
    #[should_panic(expected = "tuple overflow")]
    fn push_past_max_cols_panics() {
        let vals = vec![0i64; MAX_COLS + 1];
        let _ = from_slice(&vals);
    }

    #[test]
    fn equality_ignores_padding() {
        let mut a = from_slice(&[1, 2, 3]);
        let b = from_slice(&[1, 2]);
        assert_ne!(a, b);
        a = from_slice(&[1, 2]);
        assert_eq!(a, b);
    }
}

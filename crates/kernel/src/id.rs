//! Monotone id allocation.
//!
//! Tokens, view ids, activity-record ids and task ids are all allocated from
//! per-domain [`IdGen`]s so that ids are dense, deterministic and never
//! reused within a simulation run.

/// A monotone id allocator.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::IdGen;
///
/// let mut gen = IdGen::new();
/// assert_eq!(gen.next(), 0);
/// assert_eq!(gen.next(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates an allocator starting at 0.
    pub const fn new() -> Self {
        IdGen { next: 0 }
    }

    /// Creates an allocator starting at `first`.
    pub const fn starting_at(first: u64) -> Self {
        IdGen { next: first }
    }

    /// Allocates the next id.
    #[allow(clippy::should_implement_trait)] // deliberate: IdGen is not an iterator
    pub fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// The id that the next call to [`IdGen::next`] will return.
    pub const fn peek(&self) -> u64 {
        self.next
    }

    /// Number of ids allocated so far (when starting at 0).
    pub const fn allocated(&self) -> u64 {
        self.next
    }
}

/// Declares a newtype id with `Display`, `From<u64>` and an inherent
/// constructor — the standard shape for every id in the simulator.
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        $vis struct $name(pub u64);

        impl $name {
            /// Creates the id from a raw value.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw id value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    define_id! {
        /// A test id.
        pub struct TestId
    }

    #[test]
    fn ids_are_dense_and_monotone() {
        let mut gen = IdGen::new();
        let ids: Vec<u64> = (0..10).map(|_| gen.next()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(gen.allocated(), 10);
    }

    #[test]
    fn starting_at_offsets() {
        let mut gen = IdGen::starting_at(100);
        assert_eq!(gen.next(), 100);
        assert_eq!(gen.peek(), 101);
    }

    #[test]
    fn define_id_macro_produces_usable_type() {
        let id = TestId::new(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(TestId::from(7), id);
        assert_eq!(id.to_string(), "TestId#7");
    }
}
